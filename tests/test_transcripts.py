"""Pinned CLI transcripts.

Each case runs every command of the CLI in-process on one mesh with one
set of flags, each command given the flags it takes, and hashes what a
user sees: stdout, stderr and the exit
status of each command, and the file that `reduce --out` writes. The
digests pin today's outputs byte for byte, so a change meant to keep
the outputs fails here, on the (mesh, flags) case that moved. The
cases, and the exact coordinates that make them portable, are in
helpers; every other Python the host has runs them too.

The Library example of README.md runs here too, so the documented calls
follow the package's API.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import helpers

DIGESTS = {
    ("empty", "q-qmax1"):
        "5fe7002a2aba3d95b84a3a6e31ef66430850a39046656150a0ea41745aa5d155",
    ("empty", "strict-lex"):
        "50fe5901efe09f96f6587ec3c81636a82cc66fc436f0fbce7492e7faccba3c31",
    ("empty", "weak-kahn"):
        "50fe5901efe09f96f6587ec3c81636a82cc66fc436f0fbce7492e7faccba3c31",
    ("empty", "weak-z5"):
        "50fe5901efe09f96f6587ec3c81636a82cc66fc436f0fbce7492e7faccba3c31",
    ("empty", "z"):
        "50fe5901efe09f96f6587ec3c81636a82cc66fc436f0fbce7492e7faccba3c31",
    ("sphere1", "q-qmax1"):
        "47ba0e080abb7c64cadfb884454c543f5ef746a1d24b33fc74873726a28a7bab",
    ("sphere1", "strict-lex"):
        "7f86ad486cb0028a36d034a136b16f89e03ed8619e626024cabd7a14c6847110",
    ("sphere1", "weak-kahn"):
        "36d1efc724126803e3d734af569ca0adb518d2b35507af8392a9640b353534f3",
    ("sphere1", "weak-z5"):
        "a6a1f93885c1b3a5f590ee38a8abdc9306c1d4a65647430ec7d404b0d02e4aa4",
    ("sphere1", "z"):
        "cf07ce2a04298242a603702618b91db6de0cce57e4debfcb40c214e566147b8a",
    ("sphere2", "q-qmax1"):
        "e765a15d0f7b547bb0168c8eadfdf2e2f5e8e06c279b39635f4272570fa1dcec",
    ("sphere2", "strict-lex"):
        "afc4ae4c89ad04bca4d19a0c210a1f152f75a451680fb1a94057c9ffd82a66dc",
    ("sphere2", "weak-kahn"):
        "df5106f0e0d26381bb5df90916b5da9ecd1bd859b20d75401f561f347d2b4198",
    ("sphere2", "weak-z5"):
        "b34a47fb0ca206aa1ef006fef313e034c60da91dd0a687af41baf0fcbdbf1cb9",
    ("sphere2", "z"):
        "b04bd6d305b8a6f7d01f545b28645d68531eea241a0f9d4f37c9a64eaa0b1da0",
    ("torus6", "q-qmax1"):
        "589859c63c909b550357994a177bc82408fd6ed30957cb95054386b4e7215bd5",
    ("torus6", "strict-lex"):
        "ebd65aeaad0b21e2cea564160fdf8068b1451a789df9a54d093364a6824ee932",
    ("torus6", "weak-kahn"):
        "a01c3500a3e087dc01a10e9779ee46e166136ae76598eda82fd3975b60ece4b2",
    ("torus6", "weak-z5"):
        "f20201606e5fe66aafba10470a20722c032f753bd01dc36c1885f9528b3f3bcd",
    ("torus6", "z"):
        "407313526dd1cb8db0b901ce3b9a4c0a224c35f317f4e512bf72476b57b1931b",
}

# interpreters that run the cases in a child, besides the running one
OTHER_PYTHONS = ("python3.10", "python3.12", "python3.13")

# prints the running interpreter's version, as "3.11"
_VERSION = "import sys; print('%d.%d' % sys.version_info[:2])"

# prints [mesh, flags, digest] for every case, without pytest
_CHILD = """
import json, tempfile
from pathlib import Path
import helpers
cases = []
for mesh_name in sorted(helpers.MESHES):
    for flag_name in sorted(helpers.FLAGS):
        with tempfile.TemporaryDirectory() as tmp:
            digest, _ = helpers.transcript_digests(mesh_name, flag_name,
                                                   Path(tmp))
        cases.append([mesh_name, flag_name, digest])
print(json.dumps(cases))
"""


def _other_pythons():
    """The names in OTHER_PYTHONS that start an interpreter of another
    version than the running one."""
    running = "%d.%d" % sys.version_info[:2]
    found = []
    for name in OTHER_PYTHONS:
        try:
            done = subprocess.run([name, "-c", _VERSION],
                                  capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        if done.returncode == 0 and done.stdout.strip() != running:
            found.append(name)
    return found


@pytest.mark.parametrize("mesh_name", sorted(helpers.MESHES))
@pytest.mark.parametrize("flag_name", sorted(helpers.FLAGS))
def test_cli_transcript(mesh_name, flag_name, tmp_path):
    digest, per_command = helpers.transcript_digests(mesh_name, flag_name,
                                                     tmp_path)
    # on a mismatch, the per-command digests, set beside those of the
    # last passing tree, show which command moved
    assert digest == DIGESTS[mesh_name, flag_name], "\n".join(
        f"{command}: {own}" for command, own in per_command)


def test_cli_transcripts_under_other_pythons():
    pythons = _other_pythons()
    if not pythons:
        pytest.skip(f"no interpreter other than this one starts among "
                    f"{', '.join(OTHER_PYTHONS)}")
    tests = Path(__file__).parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(tests.parent / "src"), str(tests)]))
    for name in pythons:
        done = subprocess.run([name, "-W", "error", "-c", _CHILD], env=env,
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, (name, done.stderr)
        digests = {(m, f): d for m, f, d in json.loads(done.stdout)}
        moved = sorted(case for case in DIGESTS
                       if digests.get(case) != DIGESTS[case])
        assert moved == [] and len(digests) == len(DIGESTS), (name, moved)


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    helpers.write_off("mesh.off", helpers.sphere_mesh(1))
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == \
        "PASS checked=81 grades=8"

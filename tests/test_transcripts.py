"""Pinned CLI transcripts.

Each case runs every command of the CLI in-process on one mesh with one
set of flags and hashes what a user sees: stdout, stderr and the exit
status of each command, and the file that `reduce --out` writes. The
digests pin today's outputs byte for byte, so a change meant to keep
the outputs fails here, on the (mesh, flags) case that moved.

The meshes have coordinates that are exact on every platform: the
subdivided octahedron uses only midpoints, square roots and division,
which IEEE 754 rounds correctly, and the torus sits on an integer grid
with an integer values file.

The Library example of README.md runs here too, so the documented calls
follow the package's API.
"""

import hashlib
from pathlib import Path

import pytest

import multimorse as mm
from multimorse.cli import main

import helpers

TORUS_SIDE = 6

MESHES = {
    "sphere1": lambda: helpers.sphere_mesh(1),
    "sphere2": lambda: helpers.sphere_mesh(2),
    "torus6": lambda: mm.Mesh(
        [(float(i), float(j), 0.0)
         for i in range(TORUS_SIDE) for j in range(TORUS_SIDE)],
        helpers.grid_torus_faces(TORUS_SIDE)),
}

FLAGS = {
    "strict-lex": [],
    "weak-kahn": ["--variant", "weak", "--indexing", "kahn"],
    "z": ["--ring", "z"],
    "weak-z5": ["--variant", "weak", "--ring", "z5"],
    "q-qmax1": ["--ring", "q", "--qmax", "1"],
}

COMMANDS = [
    ["stats"],
    ["sort"],
    ["match"],
    ["reduce", "--out", "{out}"],
    ["verify"],
    ["verify", "--max-cells", "60", "--seed", "3"],
]

DIGESTS = {
    ("sphere1", "q-qmax1"):
        "1a0c98936d327f50b70807501e49bb2bbd4f8b04429e86058e1d9b76bb75003c",
    ("sphere1", "strict-lex"):
        "e3a4e7fc1e417ecf24b7f8fdc685c2550794b98c743c6ec5a56cd5a02f9e7763",
    ("sphere1", "weak-kahn"):
        "caf1d24fc9734a7bfd0a10db497a7eb2ad56892f2f1c1d183477374cf2c943f6",
    ("sphere1", "weak-z5"):
        "81f03a977b66a51cc8c7ef9b5637b1b5149f20aba0e5e0f9d0b0c0d34d6a7c05",
    ("sphere1", "z"):
        "b78ed6cda0777ef67cb44a15cb2b33a4056c81c06e6482151e89296714092546",
    ("sphere2", "q-qmax1"):
        "469b6ab72b947a0898fba0954e73c261a01a7b300bc62c9f05d15ce8e84ed04e",
    ("sphere2", "strict-lex"):
        "cd8f0df3c4c0f739ea617afe912157bc0cf7751d4ac5d253b7d90ac21079d365",
    ("sphere2", "weak-kahn"):
        "cc7f3dbe7e577eb2c2bd0bd86a16ce77f37e0127201b4ec467624f8cabe1ef83",
    ("sphere2", "weak-z5"):
        "6d5e99a4347dad0e09470c0e58777686ca9df0f7d4341bf26c0d1410b6c96d02",
    ("sphere2", "z"):
        "c39b9981766a3c6e0410c4b1df9ac2089d36ed773c8f2e59a75404fa72e235e7",
    ("torus6", "q-qmax1"):
        "1378875c0317b4a5a05a53ffa159606a8a97d7bb975ae25d8678a4a55c2e3954",
    ("torus6", "strict-lex"):
        "28295443be5c761adbbb4a10a1e2b701ec5b0aa8f89aadb46a4ceb7f93b1a65e",
    ("torus6", "weak-kahn"):
        "80e4981b960fee4b05ffa23802fbc3aea2b1c960a8d096fef372ec523800a282",
    ("torus6", "weak-z5"):
        "062fa9135bc9e38853d04351bd0e5b5e8f65fdc834f11683ebe238bbcd655feb",
    ("torus6", "z"):
        "95c10e4132adaf1ce9c03157eae337087748c43f5dd875a7e285e11f7259c0b3",
}


def _torus_values(path):
    """Integer grades with ties: vertex (i, j) gets (i % 3, (i + 2j) % 4)."""
    with open(path, "w", encoding="ascii") as fh:
        for i in range(TORUS_SIDE):
            for j in range(TORUS_SIDE):
                fh.write(f"{i % 3} {(i + 2 * j) % 4}\n")


def transcript_digest(mesh_name, flag_name, tmp_path, capsys):
    """sha256 of every command's argv (without paths), stdout, stderr,
    exit status and written file, in COMMANDS order."""
    mesh_path = str(tmp_path / "mesh.off")
    helpers.write_off(mesh_path, MESHES[mesh_name]())
    inputs = [mesh_path]
    if mesh_name.startswith("torus"):
        values_path = str(tmp_path / "values.txt")
        _torus_values(values_path)
        inputs += ["--values", values_path]
    out_path = tmp_path / "reduced.txt"
    h = hashlib.sha256()
    for command in COMMANDS:
        if out_path.exists():
            out_path.unlink()
        args = [a.format(out=out_path) for a in command]
        status = main(args[:1] + inputs + args[1:] + FLAGS[flag_name])
        captured = capsys.readouterr()
        written = out_path.read_bytes() if out_path.exists() else b""
        for part in (" ".join(command).encode(), captured.out.encode(),
                     captured.err.encode(), str(status).encode(), written):
            h.update(len(part).to_bytes(8, "big"))
            h.update(part)
    return h.hexdigest()


@pytest.mark.parametrize("mesh_name", sorted(MESHES))
@pytest.mark.parametrize("flag_name", sorted(FLAGS))
def test_cli_transcript(mesh_name, flag_name, tmp_path, capsys):
    digest = transcript_digest(mesh_name, flag_name, tmp_path, capsys)
    assert digest == DIGESTS[mesh_name, flag_name]


def test_readme_library_example(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    monkeypatch.chdir(tmp_path)
    helpers.write_off("mesh.off", helpers.sphere_mesh(1))
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.splitlines()[-1] == \
        "PASS checked=81 grades=8"

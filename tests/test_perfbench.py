"""The benchmark's calls into the package still work.

perfbench/ calls the library and the command line the way a user would,
so a change to a name, a parameter or an option there breaks only the
benchmark. Its modules are loaded here by path, as they are, and each
kind of call is made once on a small input.
"""

import importlib.util
import json
import sys
from pathlib import Path

from multimorse import cli

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    # run.py imports its neighbours by bare name; the entry goes when
    # the test ends
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_calls_into_the_package(tmp_path, monkeypatch, capsys):
    inputs = _load("inputs", monkeypatch)
    lib_run = _load("lib_run", monkeypatch)
    check = _load("check", monkeypatch)
    run = _load("run", monkeypatch)
    verts, faces = inputs.torus(6)
    mesh, values = tmp_path / "torus.off", tmp_path / "torus.values"
    out = tmp_path / "reduced.txt"
    inputs.write_off(str(mesh), verts, faces)
    inputs.write_values(str(values), inputs.tied_grades(36, 4, 2, 1))
    status, line = lib_run.run(str(mesh), str(values), str(out))
    assert status == 0 and line.startswith("PI_IOTA ok "), line
    assert check.main([str(out), "z", "betti"]) == 0
    assert json.loads(capsys.readouterr().out)["betti"] == [1, 2, 1]
    inp = {"mesh": str(mesh), "values": str(values)}
    for workload in ("reduce-distinct", "verify-sampled"):
        argv = run.command(workload, inp, 1, str(out))
        assert argv[1:3] == ["-m", "multimorse.cli"]
        args = cli.build_parser().parse_args(argv[3:])
        assert (args.command, args.mesh_path) == (argv[3], str(mesh))

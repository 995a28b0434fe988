import hashlib
import os
import subprocess
import sys
import weakref

import pytest

import multimorse as mm
from multimorse import complexes, pipeline
from multimorse.cli import build_parser, main

import helpers

TRIANGLE = mm.Mesh([(0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (1.0, 1.0, 0.0)],
                   [(0, 1, 2)])


def _mesh_file(tmp_path, mesh, name="mesh.off"):
    path = tmp_path / name
    helpers.write_off(str(path), mesh)
    return str(path)


def _values_file(tmp_path, rows, name="values.txt"):
    path = tmp_path / name
    path.write_text("".join(" ".join(str(x) for x in r) + "\n" for r in rows))
    return str(path)


def _last_row(out):
    return out.strip().splitlines()[-1].split()


def test_stats(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    assert main(["stats", mesh]) == 0
    out = capsys.readouterr().out
    lines = [line.split() for line in out.strip().splitlines()]
    assert lines[0] == ["q", "#S", "#C", "%"]
    assert lines[1] == ["0", "3", "3", "100.0"]
    assert lines[-1] == ["total", "7", "7", "100.0"]


def test_sort_prints_indexing_order(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, [(1, 1), (0, 0), (0, 1)])
    assert main(["sort", mesh, "--values", values]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == [
        "0 1 0.0 0.0",
        "1 2 0.0 1.0",
        "2 0 1.0 1.0",
    ]


def test_match(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, helpers.FULL_TRIANGLE_GRADES)
    assert main(["match", mesh, "--values", values]) == 0
    out = capsys.readouterr().out
    lines = [line.split() for line in out.strip().splitlines()]
    assert lines[0] == ["q", "#A", "#B", "#C"]
    assert lines[1] == ["0", "2", "0", "1"]
    assert lines[2] == ["1", "1", "2", "0"]
    assert lines[3] == ["2", "0", "1", "0"]
    assert lines[4] == ["total", "3", "3", "1"]
    assert lines[5] == ["acyclic", "yes"]


def test_reduce_writes_output_file(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, helpers.FULL_TRIANGLE_GRADES)
    out_path = tmp_path / "reduced.txt"
    assert main(["reduce", mesh, "--values", values,
                 "--out", str(out_path)]) == 0
    out = capsys.readouterr().out
    assert _last_row(out) == ["total", "7", "1", "14.3"]
    C, grades = mm.read_reduced(str(out_path))
    assert C.cells() == [0]
    assert grades == {0: (0.0, 0.0)}


def test_reduce_holds_little_beyond_the_complex(tmp_path, capsys):
    # the peak of a whole `reduce --out` run against the peak of reading
    # the mesh and building its complex: the run drops the mesh once it
    # has the grades, does not keep the matching past reduce_all, grades
    # only the survivors, and streams the boundary entries out
    mesh = _mesh_file(tmp_path, helpers.sphere_mesh(4))
    config = build_parser().parse_args(
        ["reduce", mesh, "--out", str(tmp_path / "r.txt")])
    _, (_, loaded) = helpers.traced(
        lambda: mm.mesh_complex(mm.read_mesh(mesh)))
    _, (_, peak) = helpers.traced(lambda: pipeline.run(config))
    assert _last_row(capsys.readouterr().out)[:2] == ["total", "6146"]
    assert peak <= 1.15 * loaded, peak / loaded


def test_import_loads_no_dataclasses_or_inspect():
    # dataclasses imports inspect, ast, dis and tokenize, about 1 MB of
    # the resident memory of every process and 9 ms or more of its start
    src = os.path.dirname(os.path.dirname(mm.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    for module in ("multimorse.cli", "multimorse"):
        code = (f"import sys, {module}\n"
                "print([m for m in ('dataclasses', 'inspect') "
                "if m in sys.modules])")
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True)
        assert done.stdout == "[]\n", (module, done.stdout)


def test_verify(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, helpers.FULL_TRIANGLE_GRADES)
    assert main(["verify", mesh, "--values", values]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert all(line.startswith("RANK ") for line in out[:-1])
    assert out[-1] == "PASS checked=18 grades=3"


def test_verify_qmax(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, helpers.FULL_TRIANGLE_GRADES)
    assert main(["verify", mesh, "--values", values, "--qmax", "0"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1] == "PASS checked=6 grades=3"
    assert all(line.split()[1] == "0" for line in out[:-1])


def test_reduce_then_verify(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, helpers.FULL_TRIANGLE_GRADES)
    assert main(["reduce", mesh, "--values", values]) == 0
    assert "total" in capsys.readouterr().out
    assert main(["verify", mesh, "--values", values]) == 0
    assert "PASS checked=18 grades=3" in capsys.readouterr().out


def test_reduce_has_no_verify_flag(tmp_path, capsys):
    # each command takes the flags its branch of pipeline.run reads, and
    # any other flag, removed ones included, is a usage error
    mesh = _mesh_file(tmp_path, TRIANGLE)
    values = _values_file(tmp_path, helpers.FULL_TRIANGLE_GRADES)
    out_path = tmp_path / "out.txt"
    samples = {"--values": values, "--variant": "weak", "--indexing": "kahn",
               "--ring": "q", "--qmax": "0", "--max-cells": "10",
               "--seed": "1", "--out": str(out_path)}
    accepted = 0
    for command, takes in helpers.COMMAND_FLAGS.items():
        for flag, value in samples.items():
            argv = [command, mesh, flag, value]
            if flag in takes:
                config = build_parser().parse_args(argv)
                assert config.command == command
                accepted += 1
                continue
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
            assert flag in capsys.readouterr().err, argv
        for extra in (["--verify"], ["--order", "dim-desc"],
                      ["--preset", "abs-xy"]):
            with pytest.raises(SystemExit) as exc:
                main([command, mesh] + extra)
            assert exc.value.code == 2
            assert extra[0] in capsys.readouterr().err
    assert accepted == 18
    # stats and sort once took --out and wrote nothing
    assert not out_path.exists()


def test_verify_checks_against_the_unreduced_input(tmp_path, capsys,
                                                  monkeypatch):
    # a reduction that loses one top cell fails, whole or sampled: verify
    # compares it with the input, not with the complex reduced in place
    real = pipeline.reduce_all

    def lossy(S, P):
        result = real(S, P)
        C = result.complex
        C.remove_cell(C.cells_of_dim(C.max_dim)[-1])
        return result

    monkeypatch.setattr(pipeline, "reduce_all", lossy)
    octa = _mesh_file(tmp_path, mm.Mesh(helpers.OCTAHEDRON_VERTICES,
                                        helpers.OCTAHEDRON_FACES))
    assert main(["verify", octa]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("FAIL mismatches=")
    sphere = _mesh_file(tmp_path, helpers.sphere_mesh(1), "sphere.off")
    assert main(["verify", sphere, "--max-cells", "50", "--seed", "3"]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("FAIL samples=")


def test_verify_certifies_the_local_pairs(tmp_path, capsys, monkeypatch):
    # a pass that also cancels one pair of unequal grades fails verify:
    # the oracle checks what the pass leaves, here on the octahedron's
    # four grades, a grid verify does not thin
    real = pipeline.cancel_local_pairs

    def overreaching(C, grades):
        pairs = real(C, grades)
        sigma, tau = next(
            (s, t) for s in C.cells() for t, a in C.coboundary(s).items()
            if grades[t] != grades[s] and C.ring.is_unit(a))
        mm.reduce_pair(C, sigma, tau, grades)
        return pairs + [(sigma, tau)]

    octa = _mesh_file(tmp_path, mm.Mesh(helpers.OCTAHEDRON_VERTICES,
                                        helpers.OCTAHEDRON_FACES))
    assert main(["verify", octa]) == 0
    assert capsys.readouterr().out.strip().endswith("grades=4")
    monkeypatch.setattr(pipeline, "cancel_local_pairs", overreaching)
    assert main(["verify", octa]) == 2
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("FAIL mismatches=")


@pytest.mark.parametrize("ring_name", ["z2", "z"])
def test_verify_certifies_what_reduce_writes(ring_name, tmp_path, capsys,
                                             monkeypatch):
    # the reduction verify hands the oracle, whole-complex, is the one
    # reduce writes: the same cells, coefficients and grades
    mesh = _mesh_file(tmp_path, helpers.sphere_mesh(1))
    out_path = tmp_path / "reduced.txt"
    assert main(["reduce", mesh, "--ring", ring_name,
                 "--out", str(out_path)]) == 0
    capsys.readouterr()
    written, written_grades = mm.read_reduced(str(out_path),
                                              mm.get_ring(ring_name))
    seen = []
    real = pipeline.verify_equivalence

    def capture(S, grades_s, reduced, grades_r, **kwargs):
        seen.append((reduced, grades_r))
        return real(S, grades_s, reduced, grades_r, **kwargs)

    monkeypatch.setattr(pipeline, "verify_equivalence", capture)
    assert main(["verify", mesh, "--ring", ring_name]) == 0
    assert capsys.readouterr().out.startswith("RANK ")
    [(reduced, grades)] = seen
    assert 0 < len(reduced) < 98   # of the sphere's 98 cells
    assert reduced.cells() == written.cells()
    for c in reduced.cells():
        assert reduced.dim(c) == written.dim(c)
        assert sorted(reduced.boundary(c)) == sorted(written.boundary(c))
    assert grades == written_grades


@pytest.mark.parametrize("ring_name", ["z2", "q", "z5", "z"])
def test_reduce_keeps_the_field_floor(ring_name, tmp_path, capsys):
    # rotated L=4 sphere: the matching alone keeps 4,322 of 6,146 cells,
    # and the local pairs take reduce to 666, the floor over a field;
    # over Z only +-1 pivots qualify, so 666 there is a count, bounded
    # below by the floor over Q, and no claim of optimality. The written
    # file joins no two cells of equal grade, as a minimal complex over
    # a field does; over Z that holds here because 666 is the floor
    # over Q
    mesh = helpers.rotated_sphere_mesh(4, 11)
    ring = mm.get_ring(ring_name)
    S = mm.mesh_complex(mesh, ring)
    f = mm.preset_abs_xy(mesh)
    grades = mm.entry_grades(S, f)
    floor = helpers.field_floor(S, grades, ring if ring.is_field
                                else mm.RATIONALS)
    assert floor == 666
    P = mm.partition(S, f, mm.lex_indexing(f))
    assert len(mm.reduce_all(S.copy(), P).complex) == 4322

    path = _mesh_file(tmp_path, mesh)
    out_path = tmp_path / "reduced.txt"
    assert main(["reduce", path, "--ring", ring_name,
                 "--out", str(out_path)]) == 0
    assert _last_row(capsys.readouterr().out) == ["total", "6146", "666",
                                                  "10.8"]
    C, written = mm.read_reduced(str(out_path), ring)
    assert len(C) == floor
    assert helpers.equal_grade_entry(C, written) is None
    assert helpers.equal_grade_entry(S, grades) is not None


def test_preset_default_on_octahedron(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, mm.Mesh(helpers.OCTAHEDRON_VERTICES,
                                        helpers.OCTAHEDRON_FACES))
    assert main(["verify", mesh]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[-1].startswith("PASS checked=")


def test_option_matrix(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, mm.Mesh(helpers.OCTAHEDRON_VERTICES,
                                        helpers.OCTAHEDRON_FACES))
    for extra in (["--variant", "weak"], ["--indexing", "kahn"],
                  ["--ring", "q"], ["--ring", "z"], ["--ring", "z5"]):
        assert main(["verify", mesh] + extra) == 0
        assert "PASS" in capsys.readouterr().out


def test_empty_mesh(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, mm.Mesh([], []))
    assert main(["stats", mesh]) == 0
    assert _last_row(capsys.readouterr().out) == ["total", "0", "0", "0.0"]
    assert main(["match", mesh]) == 0
    assert _last_row(capsys.readouterr().out) == ["total", "0", "0", "0"]
    assert main(["verify", mesh]) == 0
    assert capsys.readouterr().out.strip() == "PASS checked=0 grades=0"
    assert main(["sort", mesh]) == 0
    assert capsys.readouterr().out == ""
    out_path = tmp_path / "reduced.txt"
    assert main(["reduce", mesh, "--out", str(out_path)]) == 0
    assert _last_row(capsys.readouterr().out) == ["total", "0", "0", "0.0"]
    assert out_path.read_text() == "k 2\ncells 0\nboundary 0\n"
    C, grades = mm.read_reduced(str(out_path))
    assert len(C) == 0 and grades == {}
    missing = str(tmp_path / "missing.values")
    for command in ("sort", "match", "reduce", "verify"):
        assert main([command, mesh, "--values", missing]) == 1
        assert capsys.readouterr().err.startswith("multimorse: mesh:")
    # stats reads no grades, so it takes no --values
    with pytest.raises(SystemExit) as exc:
        main(["stats", mesh, "--values", missing])
    assert exc.value.code == 2
    assert "--values" in capsys.readouterr().err
    # the empty complex's top dimension is -1, so every Q is above it
    assert main(["verify", mesh, "--qmax", "0"]) == 1
    assert capsys.readouterr().err == (
        "multimorse: run: --qmax 0 is above the complex's top dimension -1\n")


def test_sampling_on_large_mesh(tmp_path, capsys):
    mesh = _mesh_file(tmp_path, helpers.sphere_mesh(1))
    assert main(["verify", mesh, "--max-cells", "50", "--seed", "3"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0].startswith("SAMPLE 0 center=")
    assert all("cells=" in line for line in out[:-1])
    assert out[-1].startswith("PASS samples=")
    # same seed, same transcript
    assert main(["verify", mesh, "--max-cells", "50", "--seed", "3"]) == 0
    assert capsys.readouterr().out.strip().splitlines() == out


def test_sampled_verify_builds_one_sample_at_a_time(tmp_path, capsys,
                                                    monkeypatch):
    # above --max-cells, verify builds no complex of the whole 6,146-cell
    # mesh: it builds each sample from its cells, certifies it and drops
    # it before the next is built
    mesh = _mesh_file(tmp_path, helpers.rotated_sphere_mesh(4, 11))
    real = complexes.complex_from_closure
    sizes, refs, alive = [], [], []

    def tracked(closure, ring=mm.GF2):
        alive.append(sum(ref() is not None for ref in refs))
        S = real(closure, ring)
        sizes.append(len(S))
        refs.append(weakref.ref(S))
        return S

    monkeypatch.setattr(complexes, "complex_from_closure", tracked)
    monkeypatch.setattr(pipeline, "complex_from_closure", tracked)
    assert main(["verify", mesh, "--max-cells", "400", "--seed", "3"]) == 0
    assert capsys.readouterr().out.endswith("\nPASS samples=20\n")
    assert len(sizes) == 20 and max(sizes) <= 400, sizes
    assert alive == [0] * 20, alive


def test_input_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.off")
    assert main(["stats", missing]) == 1
    assert capsys.readouterr().err.startswith("multimorse: mesh:")

    mesh = _mesh_file(tmp_path, TRIANGLE)
    assert main(["reduce", mesh, "--ring", "z6"]) == 1
    assert "multimorse:" in capsys.readouterr().err
    for name in ("z\u00b2", "z\u0663"):     # z², z٣
        assert main(["reduce", mesh, "--ring", name]) == 1
        assert capsys.readouterr().err.startswith("multimorse: ring:")

    short = _values_file(tmp_path, [(0, 0), (1, 1)])
    assert main(["match", mesh, "--values", short]) == 1
    assert "value lines" in capsys.readouterr().err
    empty = _values_file(tmp_path, [], "empty.txt")
    assert main(["reduce", mesh, "--values", empty]) == 1
    assert capsys.readouterr().err.endswith("empty.txt: no value lines\n")

    assert main(["verify", mesh, "--qmax", "-3"]) == 1
    assert "--qmax" in capsys.readouterr().err
    # no homology lives above the top dimension, 2 for a triangle
    assert main(["verify", mesh, "--qmax", "2"]) == 0
    assert capsys.readouterr().out.endswith("PASS checked=18 grades=3\n")
    for q_max in ("3", "2000000"):
        assert main(["verify", mesh, "--qmax", q_max]) == 1
        assert capsys.readouterr().err == (
            f"multimorse: run: --qmax {q_max} is above the complex's top "
            f"dimension 2\n")
    assert main(["verify", mesh, "--max-cells", "-1"]) == 1
    assert "--max-cells" in capsys.readouterr().err

    out = str(tmp_path / "no-such-dir" / "out.txt")
    assert main(["reduce", mesh, "--out", out]) == 1
    assert capsys.readouterr().err.startswith("multimorse: io:")


def test_parser_requires_command():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([])
    assert exc.value.code == 2


OBJ_TETRAHEDRON = """\
v 0.0 0.0 0.0
v 1.5 0.25 0.0
v 0.5 2.0 0.0
v 0.75 0.5 1.0
f 1 2 3
f 1/1 2/2 4/3
f -4 -2 -1
f 2//1 3//2 4//3
"""

# an isolated vertex 4 and the face (0, 1, 2) given twice
ISOLATED_AND_REPEATED = mm.Mesh(
    [(0.0, 0.0, 0.0), (1.0, 0.5, 0.0), (0.25, 1.0, 0.0), (2.0, 1.5, 0.0),
     (3.0, 0.75, 1.0)],
    [(0, 1, 2), (2, 1, 0), (1, 2, 3)])

# stdout of stats, and the sha256 of the stdout of sort, as they were
# when both built the complex
STATS_AND_SORT = {
    "sphere3": ("""\
    q    #S    #C      %
    0   258   258  100.0
    1   768   768  100.0
    2   512   512  100.0
total  1538  1538  100.0
""", "e76226fad5f5489c174a2a73bab3c7b1671c0eef8e5a57c22cbb13ca832b0239"),
    "tetrahedron.obj": ("""\
    q  #S  #C      %
    0   4   4  100.0
    1   6   6  100.0
    2   4   4  100.0
total  14  14  100.0
""", "82a2bf13e455b12b023158be291478f8ed4a0199a7bffe69302cb85361dc3a50"),
    "isolated": ("""\
    q  #S  #C      %
    0   5   5  100.0
    1   5   5  100.0
    2   2   2  100.0
total  12  12  100.0
""", "43fa5b698380aac5abb349900c5a464fa7b39b21b134465e86f055d75d202b31"),
    "empty": ("""\
    q  #S  #C    %
total   0   0  0.0
""", hashlib.sha256(b"").hexdigest()),
}


def _case_file(tmp_path, name):
    if name == "sphere3":
        return _mesh_file(tmp_path, helpers.sphere_mesh(3))
    if name == "tetrahedron.obj":
        path = tmp_path / name
        path.write_text(OBJ_TETRAHEDRON)
        return str(path)
    if name == "isolated":
        return _mesh_file(tmp_path, ISOLATED_AND_REPEATED)
    return _mesh_file(tmp_path, mm.Mesh([], []))


@pytest.mark.parametrize("name", sorted(STATS_AND_SORT))
def test_stats_and_sort_build_no_complex(name, tmp_path, capsys,
                                         monkeypatch):
    # stats counts the closure's cells and sort reads only the grades
    mesh = _case_file(tmp_path, name)

    def refuse(*args, **kwargs):
        raise AssertionError("a complex was built")

    monkeypatch.setattr(complexes, "complex_from_closure", refuse)
    monkeypatch.setattr(pipeline, "complex_from_closure", refuse)
    stats, sort_digest = STATS_AND_SORT[name]
    assert main(["stats", mesh]) == 0
    assert capsys.readouterr().out == stats
    assert main(["sort", mesh]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == sort_digest

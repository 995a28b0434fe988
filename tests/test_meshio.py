import math

import pytest

import multimorse as mm
from multimorse.cli import main
from multimorse.complexes import CELL_ID_LIMIT
from multimorse.meshio import MeshFormatError

import helpers

TRIANGLE_OFF = """OFF
# a single triangle
3 1 0
0.0 0.0 0.0
1.0 0.0 0.0
0.0 1.0 0.0
3 0 1 2
"""

TRIANGLE_OBJ = """# exported by hand
v 0.0 0.0 0.0
v 1.0 0.0 0.0
v 0.0 1.0 0.0
vn 0 0 1
f 1/1/1 2/2/1 3/3/1
"""


def test_read_off(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text(TRIANGLE_OFF)
    mesh = mm.read_mesh(str(path))
    assert mesh.vertices == [(0.0, 0.0, 0.0), (1.0, 0.0, 0.0),
                             (0.0, 1.0, 0.0)]
    assert mesh.faces == [(0, 1, 2)]


def test_off_counts_on_header_line(tmp_path):
    path = tmp_path / "tri.off"
    path.write_text("OFF 3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n")
    assert mm.read_mesh(str(path)).faces == [(0, 1, 2)]


def test_read_obj(tmp_path):
    path = tmp_path / "tri.obj"
    path.write_text(TRIANGLE_OBJ)
    mesh = mm.read_mesh(str(path))
    assert len(mesh.vertices) == 3
    assert mesh.faces == [(0, 1, 2)]
    # a negative reference counts back from the last vertex read so far
    verts = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"
    for faces, want in (("f -3 -2 -1\n", [(0, 1, 2)]),
                        ("f 1 -2/1 -1//2\n", [(0, 1, 2)]),
                        ("f -3 -2 -1\nv 1 1 0\nf -1 -2 1\n",
                         [(0, 1, 2), (3, 2, 0)])):
        path.write_text(verts + faces)
        assert mm.read_mesh(str(path)).faces == want, faces


def test_extension_fallback_sniffs_off(tmp_path):
    path = tmp_path / "mesh.txt"
    path.write_text(TRIANGLE_OFF)
    assert mm.read_mesh(str(path)).faces == [(0, 1, 2)]
    bad = tmp_path / "mesh.dat"
    bad.write_text("not a mesh at all\n")
    with pytest.raises(MeshFormatError, match="unrecognized"):
        mm.read_mesh(str(bad))


@pytest.mark.parametrize("body,complaint", [
    ("", "empty"),
    ("3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "OFF header"),
    ("OFF\n", "count line"),
    ("OFF\nx y\n", "bad count"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n3 0 1 2\n", "expected 3 vertices"),
    ("OFF\n3 1 0\n0 0 zero\n1 0 0\n0 1 0\n3 0 1 2\n", "bad vertex"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n4 0 1 2 2\n", "non-triangle"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n", "degenerate"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 3\n", "out of range"),
    # the 1-based file line, counting blank and comment lines
    ("OFF\n# c\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n", "bad face line 7$"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 x\n", "bad face line 6$"),
    ("OFF 3 1 0\n\n0 0 0\n1 y 0\n0 1 0\n3 0 1 2\n", "bad vertex line 4$"),
    ("OFF\n3 1 0\n0 0 0\n\n1 0 0\n0 1 0\n3 0 1 7\n",
     r"line 7: index out of range \(7\)$"),
    ("OFF\n3 1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 1\n",
     r"line 6: degenerate face \(0, 1, 1\)$"),
    ("OFF\n# c\nx y\n", "bad count line 3$"),
    # negative counts would drop vertices or faces without a word
    ("OFF\n-1 0 0\n0 0 0\n", "bad count line 2$"),
    ("OFF\n-2 3 0\n0 0 0\n1 0 0\n0 1 0\n", "bad count line 2$"),
    ("OFF\n3 -1 0\n0 0 0\n1 0 0\n0 1 0\n3 0 1 2\n", "bad count line 2$"),
    ("OFF -1 0 0\n", "bad count line 1$"),
])
def test_bad_off_files(tmp_path, body, complaint):
    path = tmp_path / "bad.off"
    path.write_text(body)
    with pytest.raises(MeshFormatError, match=complaint):
        mm.read_mesh(str(path))


@pytest.mark.parametrize("body,complaint", [
    ("v 0 0\nf 1 2 3\n", "bad vertex"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", "non-triangle"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n", "out of range"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 0 1 2\n", "out of range"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf a b c\n", "bad face reference"),
    # the 1-based file line, counting blank and comment lines
    ("v 0 0 0\n# c\nv 1 0\nv 0 1 0\n", r"line 3: bad vertex line 'v 1 0'$"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\n\nf 1 2 x\n",
     r"line 5: bad face reference 'x'$"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\nf 0 1 2\n",
     r"line 5: index out of range \(0\)$"),
    ("v 0 0 0\nv 1 0 0\nf 1 2 3\nv 0 1 0\nf 1 2 4\n",
     r"line 5: index out of range \(4\)$"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 2\n",
     r"line 4: degenerate face \(1, 2, 2\)$"),
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2\n", r"line 4: non-triangle face"),
    # a relative reference reaching before the first vertex, as written
    ("v 0 0 0\nv 1 0 0\nv 0 1 0\nf -4 -2 -1\n",
     r"line 4: index out of range \(-4\)$"),
    ("v 0 0 0\nv 1 0 0\nf -2 -1 -3\nv 0 1 0\n",
     r"line 3: index out of range \(-3\)$"),
])
def test_bad_obj_files(tmp_path, body, complaint):
    path = tmp_path / "bad.obj"
    path.write_text(body)
    with pytest.raises(MeshFormatError, match=complaint):
        mm.read_mesh(str(path))


def test_missing_file():
    with pytest.raises(MeshFormatError, match="cannot read"):
        mm.read_mesh("/nonexistent/mesh.off")
    with pytest.raises(MeshFormatError, match="cannot read"):
        mm.read_values("/nonexistent/values.txt")


@pytest.mark.parametrize("read", [mm.read_mesh, mm.read_values,
                                  mm.read_reduced])
def test_non_ascii_file(tmp_path, read):
    path = tmp_path / "latin1.off"
    path.write_bytes(b"OFF\n3 1 0\n\xff 0 0\n")
    with pytest.raises(MeshFormatError,
                       match=r"latin1\.off: byte 0xff at offset 10 is not "
                             r"ASCII"):
        read(str(path))


def test_preset_abs_xy():
    mesh = mm.Mesh([(-1.5, 2.0, 7.0), (0.0, 0.0, -3.0), (0.25, -0.5, 0.0)],
                   [])
    f = mm.preset_abs_xy(mesh)
    assert f.grades == [(1.5, 2.0), (0.0, 0.0), (0.25, 0.5)]
    mirrored = mm.Mesh([(1.5, -2.0, 0.0)], [])
    assert mm.preset_abs_xy(mirrored)[0] == (1.5, 2.0)


def test_read_values(tmp_path):
    path = tmp_path / "vals.txt"
    path.write_text("0 1\n# comment\n2 3\n\n4 5\n")
    f = mm.read_values(str(path))
    assert f.grades == [(0.0, 1.0), (2.0, 3.0), (4.0, 5.0)]
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\ntwo 3\n")
    with pytest.raises(MeshFormatError, match="bad values line 2$"):
        mm.read_values(str(bad))
    # the 1-based file line, counting blank and comment lines
    bad.write_text("# header\n\n1 2\n1 x\n")
    with pytest.raises(MeshFormatError, match="bad values line 4$"):
        mm.read_values(str(bad))
    ragged = tmp_path / "ragged.txt"
    ragged.write_text("0 1\n2\n")
    with pytest.raises(mm.GradeError):
        mm.read_values(str(ragged))
    # arity and finiteness are checked per line, naming the file's line
    ragged.write_text("0 1\n2 3\n# c\n3 4 5\n")
    with pytest.raises(mm.GradeError,
                       match=r"ragged\.txt: line 4 has arity 3, expected 2$"):
        mm.read_values(str(ragged))
    for text in ("nan", "1e999", "-inf"):
        bad.write_text(f"0 1\n\n1 {text}\n")
        with pytest.raises(mm.GradeError,
                           match=r"bad\.txt: non-finite component on line 3$"):
            mm.read_values(str(bad))
    # no value line at all names the file too
    for text in ("", "# only a comment\n\n"):
        bad.write_text(text)
        with pytest.raises(mm.GradeError,
                           match=r"^grades: .*bad\.txt: no value lines$"):
            mm.read_values(str(bad))


def test_mesh_complex_counts():
    tri = mm.Mesh([(0.0, 0.0, 0.0)] * 3, [(0, 1, 2)])
    assert len(mm.mesh_complex(tri)) == 7
    octa = mm.Mesh(helpers.OCTAHEDRON_VERTICES, helpers.OCTAHEDRON_FACES)
    S = mm.mesh_complex(octa)
    assert (len(S.cells_of_dim(0)), len(S.cells_of_dim(1)),
            len(S.cells_of_dim(2))) == (6, 12, 8)
    assert mm.homology(S).betti == [1, 0, 1]


def test_sphere_meshes_grow_fourfold():
    m1 = helpers.sphere_mesh(1)
    assert len(m1.faces) == 32
    for x, y, z in m1.vertices:
        assert math.isclose(x * x + y * y + z * z, 1.0)
    assert len(helpers.sphere_mesh(2).faces) == 128


def test_reduced_round_trip(tmp_path):
    for ring in (mm.GF2, mm.RATIONALS, mm.INTEGERS):
        S = helpers.full_triangle(ring)
        f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
        grades = mm.entry_grades(S, f)
        path = tmp_path / f"{ring.name}.txt"
        mm.write_reduced(str(path), S, grades, f.k)
        back, back_grades = mm.read_reduced(str(path), ring)
        assert back.cells() == S.cells()
        assert back_grades == grades
        for c in S.cells():
            assert dict(back.boundary(c)) == dict(S.boundary(c))


def test_reduced_round_trip_fractions(tmp_path):
    from fractions import Fraction
    S = mm.SComplex(mm.RATIONALS)
    a = S.add_cell(0)
    b = S.add_cell(0)
    e = S.add_cell(1)
    S.set_incidence(e, a, Fraction(-3, 2))
    S.set_incidence(e, b, Fraction(3, 2))
    path = tmp_path / "frac.txt"
    grades = {a: (0.125,), b: (0.25,), e: (0.25,)}
    mm.write_reduced(str(path), S, grades, 1)
    back, back_grades = mm.read_reduced(str(path), mm.RATIONALS)
    assert back.incidence(e, a) == Fraction(-3, 2)
    assert back_grades == grades


def test_reduced_empty_complex(tmp_path):
    path = tmp_path / "empty.txt"
    mm.write_reduced(str(path), mm.SComplex(mm.GF2), {}, 2)
    back, grades = mm.read_reduced(str(path))
    assert back.cells() == [] and grades == {}


def test_reduced_bad_files(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("cells 0\n")
    with pytest.raises(MeshFormatError, match="expected 'k'"):
        mm.read_reduced(str(path))
    path.write_text("k 2\ncells 1\n0 0 1.0\nboundary 0\n")
    with pytest.raises(MeshFormatError, match="grade components"):
        mm.read_reduced(str(path))
    path.write_text("k 1\ncells 2\n0 0 1.0\n1 1 1.0\nboundary 1\n1 0 x\n")
    with pytest.raises(MeshFormatError, match="bad boundary"):
        mm.read_reduced(str(path), mm.INTEGERS)
    path.write_text("k 1\ncells 1\nx 0 1.0\nboundary 0\n")
    with pytest.raises(MeshFormatError, match="line 3: bad cell line 'x 0"):
        mm.read_reduced(str(path))
    # nor is a file written whose grades do not have the stated arity
    S = helpers.single_edge()
    with pytest.raises(MeshFormatError, match="cell 0 grade arity 1 != 2"):
        mm.write_reduced(str(path), S, {c: (0.0,) for c in S.cells()}, 2)


def _reduced_text(tmp_path):
    """A valid reduced file over Z: the full triangle, not reduced."""
    S = helpers.full_triangle(mm.INTEGERS)
    grades = mm.entry_grades(S, helpers.grades_of(helpers.FULL_TRIANGLE_GRADES))
    path = tmp_path / "good.txt"
    mm.write_reduced(str(path), S, grades, 2)
    return path.read_text()


def _read_bad(tmp_path, text, match):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(MeshFormatError, match=match) as info:
        mm.read_reduced(str(path), mm.INTEGERS)
    assert str(path) in str(info.value)


def test_reduced_truncated_file(tmp_path):
    lines = _reduced_text(tmp_path).splitlines(keepends=True)
    for cut in range(len(lines)):
        _read_bad(tmp_path, "".join(lines[:cut]),
                  rf"line {cut + 1}: file ends before")


@pytest.mark.parametrize("head", ["k two\ncells 0\n", "k 2 2\ncells 0\n",
                                  "k\ncells 0\n", "k -1\ncells 0\n"])
def test_reduced_bad_k_line(tmp_path, head):
    _read_bad(tmp_path, head + "boundary 0\n", "line 1: bad 'k' line")


@pytest.mark.parametrize("count", ["1.5", "x", "-2"])
def test_reduced_bad_cells_line(tmp_path, count):
    _read_bad(tmp_path, f"k 1\n# comment\n\ncells {count}\nboundary 0\n",
              "line 4: bad 'cells' line")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_reduced_non_finite_grade(tmp_path, value):
    _read_bad(tmp_path, f"k 2\ncells 2\n0 0 0.0 1.0\n1 0 1.0 {value}\n"
              "boundary 0\n", "line 4: cell 1 has a non-finite grade")


def test_reduced_duplicate_cell_id(tmp_path):
    _read_bad(tmp_path, "k 1\ncells 2\n0 0 0.0\n0 1 1.0\nboundary 0\n",
              "line 4: .*cell id 0 already in use")
    _read_bad(tmp_path, "k 1\ncells 1\n0 -1 0.0\nboundary 0\n",
              "line 3: .*negative dimension")


def test_reduced_cell_id_out_of_range(tmp_path):
    # refused before the complex's tables grow to the id
    _read_bad(tmp_path, "k 1\ncells 1\n-3 0 0.0\nboundary 0\n",
              "line 3: .*cell id -3 outside")
    big = CELL_ID_LIMIT
    _read_bad(tmp_path, f"k 1\ncells 2\n0 0 0.0\n{big} 0 0.0\nboundary 0\n",
              f"line 4: .*cell id {big} outside")


def test_reduced_boundary_names_missing_cell(tmp_path):
    for s, t, missing in ((2, 9, 9), (7, 0, 7)):
        _read_bad(tmp_path, "k 1\ncells 3\n0 0 0.0\n1 0 0.0\n2 1 0.0\n"
                  f"boundary 2\n2 1 1\n{s} {t} 1\n",
                  f"line 8: .*no cell {missing}")


def test_reduced_bad_boundary_entries(tmp_path):
    head = "k 1\ncells 3\n0 0 0.0\n1 0 0.0\n2 1 0.0\nboundary 1\n"
    _read_bad(tmp_path, head + "2 0 1/0\n", "line 7: bad boundary line")
    _read_bad(tmp_path, head + "1 0 1\n", "line 7: .*dim 0 and dim 0")
    _read_bad(tmp_path, "k 1\ncells 3\n0 0 0.0\n1 1 0.0\n2 2 0.0\n"
              "boundary 2\n1 0 1\n2 1 1\n", r"dd != 0")


def test_reduced_repeated_boundary_entry(tmp_path):
    # the second entry for the pair 2,1 would silently replace the first
    _read_bad(tmp_path, "k 1\ncells 3\n0 0 0.0\n1 0 0.0\n2 1 0.0\n"
              "boundary 3\n2 1 -1\n2 0 1\n2 1 3\n",
              "line 9: repeated boundary entry for cells 2,1")


def test_reduced_refuses_lines_past_the_entries(tmp_path, capsys):
    # a short count once dropped the entries past it unread, and here
    # dd stays 0 without them, so validate alone does not catch it
    mesh = tmp_path / "sphere.off"
    helpers.write_off(str(mesh), helpers.sphere_mesh(1))
    out = tmp_path / "reduced.txt"
    assert main(["reduce", str(mesh), "--ring", "z", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text()
    mm.read_reduced(str(out), mm.INTEGERS)
    lines = text.splitlines()
    head = lines.index("boundary 32") + 1
    assert len(lines) == head + 32
    _read_bad(tmp_path, text.replace("boundary 32\n", "boundary 30\n"),
              f"line {head + 31}: line past the 30 boundary entries$")
    _read_bad(tmp_path, text + "junk\n",
              f"line {head + 33}: line past the 32 boundary entries$")


def test_write_off_round_trip(tmp_path):
    mesh = helpers.sphere_mesh(1)
    path = tmp_path / "sphere.off"
    helpers.write_off(str(path), mesh)
    back = mm.read_mesh(str(path))
    assert back.vertices == mesh.vertices
    assert back.faces == list(mesh.faces)


def test_faces_hold_one_int_per_vertex(tmp_path):
    # ints past 256 are not cached by CPython, so parsing each corner
    # anew would pin one int object per corner rather than per vertex
    mesh = helpers.sphere_mesh(4)   # 1,026 vertices, 2,048 triangles
    off = tmp_path / "sphere.off"
    helpers.write_off(str(off), mesh)
    obj = tmp_path / "sphere.obj"
    obj.write_text(
        "".join(f"v {x!r} {y!r} {z!r}\n" for x, y, z in mesh.vertices)
        + "".join(f"f {a + 1} {b + 1} {c + 1}\n" for a, b, c in mesh.faces))
    for path in (off, obj):
        back = mm.read_mesh(str(path))
        assert back.faces == list(mesh.faces)
        ints = {id(v) for face in back.faces for v in face}
        assert len(ints) <= len(back.vertices), (path.name, len(ints))


def test_complex_holds_one_int_per_vertex(tmp_path):
    # the closure takes each vertex tuple from the faces, which hold the
    # parser's one int per vertex, and makes a lone vertex's tuple only
    # for an isolated vertex: on rotated L=4, 1,026 int objects rather
    # than 1,795 (ints up to 256 are cached either way)
    path = tmp_path / "sphere.off"
    helpers.write_off(str(path), helpers.rotated_sphere_mesh(4, 11))
    mesh = mm.read_mesh(str(path))
    S = mm.mesh_complex(mesh)
    assert len({id(v) for w in S.verts for v in w}) == len(mesh.vertices)
    assert len(mesh.vertices) == 1026

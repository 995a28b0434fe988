import random
import re
from pathlib import Path

import pytest

import multimorse as mm
from multimorse.complexes import (CELL_ID_LIMIT, ComplexError,
                                  complex_from_closure)

import helpers


def test_full_triangle_layout():
    S = helpers.full_triangle()
    assert len(S) == 7
    assert S.max_dim == 2
    assert S.verts[0] == (0,)
    assert S.verts[3] == (0, 1)
    assert S.verts[4] == (0, 2)
    assert S.verts[5] == (1, 2)
    assert S.verts[6] == (0, 1, 2)
    assert S.cells_of_dim(1) == [3, 4, 5]


def test_alternating_signs_over_z():
    S = helpers.full_triangle(mm.INTEGERS)
    face = S.cell_with_verts((0, 1, 2))
    assert S.incidence(face, S.cell_with_verts((1, 2))) == 1
    assert S.incidence(face, S.cell_with_verts((0, 2))) == -1
    assert S.incidence(face, S.cell_with_verts((0, 1))) == 1
    edge = S.cell_with_verts((0, 1))
    assert dict(S.boundary(edge)) == {1: 1, 0: -1}


def test_boundary_over_gf2():
    S = helpers.full_triangle()
    assert dict(S.boundary(3)) == {0: 1, 1: 1}
    assert dict(S.boundary(0)) == {}


def test_boundary_squares_to_zero():
    for seed in range(4):
        for ring in (mm.GF2, mm.RATIONALS, mm.INTEGERS):
            S = helpers.random_complex(seed, ring=ring)
            S.validate()
            # direct check, not relying on validate's internals
            for c in S.cells():
                acc = {}
                for t, v in S.boundary(c):
                    for u, w in S.boundary(t):
                        acc[u] = ring.add(acc.get(u, ring.zero),
                                          ring.mul(v, w))
                assert all(x == ring.zero for x in acc.values())


def test_faces_cofaces_transposed():
    S = helpers.random_complex(11)
    for c in S.cells():
        for t, v in S.boundary(c):
            assert S.incidence(c, t) == v == dict(S.coboundary(t))[c]


def test_cofaces_closure():
    S = helpers.full_triangle()
    assert helpers.cofaces_closure(S, 0) == {3, 4, 6}
    assert helpers.cofaces_closure(S, 5) == {6}
    assert helpers.cofaces_closure(S, 6) == set()


def test_remove_cell_clears_incidences():
    S = helpers.full_triangle()
    S.remove_cell(6)
    S.remove_cell(3)
    assert helpers.cofaces(S, 0) == {4}
    assert helpers.cofaces(S, 1) == {5}
    assert helpers.faces(S, 5) == {1, 2}
    S.validate()


def test_removed_id_is_never_reused():
    # a removed cell's id stays in its faces' coface rows, so a new cell
    # under that id would bring those entries back: add_cell refuses it
    S = helpers.full_triangle()
    S.remove_cell(6)
    S.remove_cell(3)
    for T in (S, S.copy()):
        with pytest.raises(ComplexError, match="cell id 3 belonged to a "
                                               "removed cell"):
            T.add_cell(1, cell_id=3)
        assert 3 not in T and list(T.coboundary(0).items()) == [(4, 1)]
        e = T.add_cell(1)
        assert e == 7
        T.set_incidence(e, 0, 1)
        T.set_incidence(e, 1, 1)
        assert list(T.coboundary(0).items()) == [(4, 1), (7, 1)]
        # a zeroed entry set again is listed once, at the end
        T.set_incidence(4, 0, 0)
        T.set_incidence(4, 0, 1)
        assert list(T.coboundary(0).items()) == [(7, 1), (4, 1)]
        assert list(T.coboundary(1).items()) == [(5, 1), (7, 1)]
        T.validate()


def test_coboundary_returns_a_fresh_dict():
    # reduce_pair takes tau out of the dict it is given: the complex
    # must not notice
    S = helpers.full_triangle(mm.INTEGERS)
    for v in (0, 1, 2):
        row = S.coboundary(v)
        assert isinstance(row, dict) and len(row) == 2
        before = list(row.items())
        row.clear()
        assert list(S.coboundary(v).items()) == before
        S.validate()


def test_copy_is_independent():
    S = helpers.full_triangle(mm.INTEGERS)
    T = S.copy()
    assert T.cells() == S.cells()
    assert T.verts == S.verts
    T.remove_cell(6)
    assert 6 in S and 6 not in T
    assert S.incidence(6, 5) == 1
    assert S.verts[6] == (0, 1, 2) and S.cell_with_verts((0, 1, 2)) == 6
    assert T.verts[6] is None and (0, 1, 2) not in T.verts
    with pytest.raises(ComplexError, match=r"no simplex \(0, 1, 2\)"):
        T.cell_with_verts((2, 1, 0))


def test_cell_without_verts_skips_removed_ids():
    # a removed cell leaves None in verts, as a cell without a tuple
    # does, and only the latter is reported
    S = helpers.full_triangle()
    S.remove_cell(6)
    assert S.cell_without_verts() is None
    assert S.add_cell(1) == 7
    assert S.cell_without_verts() == 7


def test_construction_errors():
    with pytest.raises(ComplexError):
        mm.build_simplicial(2, [[0, 0]])
    with pytest.raises(ComplexError):
        mm.build_simplicial(2, [[0, 5]])
    with pytest.raises(ComplexError, match="empty simplex"):
        mm.complex_from_simplices([()])
    with pytest.raises(ComplexError, match="repeated vertex"):
        mm.complex_from_simplices([(0, 1), (1, 0, 1)])
    # a vertex out of range is named before any other fault, and each
    # fault at the first simplex that has it, in input order
    for simplices, message in [
            ([[0, 0], [0, 5]], "vertex 5 outside 0..2"),
            ([(), [1, 7, 1], [-1, 2]], "vertex 7 outside 0..2"),
            ([[0, 1], [2, 1, 2], [0, 0], ()], r"simplex \[2, 1, 2\]"),
            ([[0, 1], (), [1, 1]], "empty simplex"),
            ([[2, 1, 0, 1]], r"repeated vertex in simplex \[2, 1, 0, 1\]")]:
        with pytest.raises(ComplexError, match=message):
            mm.build_simplicial(3, simplices)
    with pytest.raises(ComplexError, match="vertex 0 outside 0..-1"):
        mm.build_simplicial(0, [[0]])
    with pytest.raises(ComplexError, match=r"repeated vertex in simplex "
                                           r"\(4, 9, 4\)"):
        mm.complex_from_simplices(iter([(1, 2, 3), (4, 9, 4), ()]))
    # two ids for one tuple would leave each lookup by vertices ambiguous
    with pytest.raises(ComplexError, match=r"simplex \(0, 1\) is listed "
                                           r"twice"):
        complex_from_closure([(0,), (1,), (0, 1), (0, 1)])
    S = mm.SComplex()
    S.add_cell(0, cell_id=4)
    with pytest.raises(ComplexError):
        S.add_cell(1, cell_id=4)
    with pytest.raises(ComplexError):
        S.dim(99)
    with pytest.raises(ComplexError):
        S.boundary(99)
    with pytest.raises(ComplexError):
        S.coboundary(99)


def test_add_cell_refuses_ids_out_of_range():
    # the ids index the tables: a negative id would alias their end, and
    # a huge one would grow them to its size
    S = mm.SComplex()
    for bad in (-1, -3, CELL_ID_LIMIT, CELL_ID_LIMIT + 7):
        with pytest.raises(ComplexError, match=f"cell id {bad} outside"):
            S.add_cell(0, cell_id=bad)
    # refused before any table grew: the next free id is still 0
    assert len(S) == 0 and S.cells() == []
    assert S.add_cell(0) == 0
    S.add_cell(1, cell_id=3)
    assert S.cells() == [0, 3] and len(S) == 2
    # neither the holes nor a negative id name a cell
    for c in (-1, 1, 2, 4):
        assert c not in S
        for query in (S.dim, S.boundary, S.coboundary):
            with pytest.raises(ComplexError, match=f"no cell {c}"):
                query(c)
    S.remove_cell(3)
    assert S.cells() == [0] and len(S) == 1
    assert S.add_cell(0) == 4   # a removed id is not handed out again


def test_built_complex_allocation_per_cell():
    # tracemalloc counts blocks, so the figure does not move with the
    # host. Most vertex ids of L=4 are below 257, ints CPython caches,
    # so a build that makes new ints per cell shows only at L=5.
    for level, cells in ((4, 6146), (5, 24578)):
        mesh = helpers.sphere_mesh(level)
        S, (size, _) = helpers.traced(lambda: mm.mesh_complex(mesh))
        assert len(S) == cells
        assert size / len(S) <= 430, (level, size / len(S))


def _assert_same_complex(S, R):
    assert S.cells() == R.cells()
    assert S.verts == R.verts
    for c in R.cells():
        assert S.dim(c) == R.dim(c)
        assert list(S.boundary(c)) == list(R.boundary(c))
        assert (list(S.coboundary(c).items())
                == list(R.coboundary(c).items()))
    assert S.add_cell(0) == R.add_cell(0)


def test_complex_from_simplices_equals_reference_builder():
    rng = random.Random(17)
    for n, simplices in helpers.meshes_with_solids():
        # repeats, reversed vertex orders, and faces of earlier simplices
        extra = [tuple(reversed(s)) for s in rng.sample(simplices, 5)]
        extra += [s[:2] for s in rng.sample(simplices, 5)]
        extra += [simplices[0], (n - 1,)]
        for given in (simplices, simplices + extra, extra + simplices):
            for ring in (mm.GF2, mm.INTEGERS):
                _assert_same_complex(
                    mm.complex_from_simplices(given, ring),
                    helpers.reference_complex_from_simplices(given, ring))


def test_complex_from_closure_equals_complex_from_simplices():
    for n, simplices in helpers.meshes_with_solids():
        closed = mm.complex_from_simplices(simplices).verts
        # the cells of a closure, in (dimension, vertices) order, reversed
        # and as a set: the ids follow the cells, not the listing order
        for cells in (closed, closed[::-1], set(closed)):
            for ring in (mm.GF2, mm.INTEGERS):
                _assert_same_complex(complex_from_closure(cells, ring),
                                     mm.complex_from_simplices(simplices,
                                                               ring))
    # a face listed after its simplex is put before it
    closed = [(0,), (1,), (2,), (0, 1), (0, 2), (1, 2), (0, 1, 2)]
    _assert_same_complex(
        complex_from_closure(closed[:5] + closed[6:] + [(1, 2)]),
        complex_from_closure(closed))
    # a missing face is a ComplexError
    with pytest.raises(ComplexError, match=r"face \(1, 2\) of simplex "
                                           r"\(0, 1, 2\) is not listed"):
        complex_from_closure(closed[:5] + closed[6:])


def test_incidence_dimension_rule():
    S = mm.SComplex(mm.INTEGERS)
    v = S.add_cell(0)
    e = S.add_cell(1)
    t = S.add_cell(2)
    with pytest.raises(ComplexError):
        S.set_incidence(t, v, 1)
    S.set_incidence(e, v, 2)
    S.set_incidence(e, v, 0)
    assert dict(S.boundary(e)) == {}


def test_set_incidence_normalizes_into_the_ring():
    # over z2 an incidence of 2 is zero: the edge is a cycle on its own
    S = mm.SComplex(mm.GF2)
    v = S.add_cell(0)
    e = S.add_cell(1)
    S.set_incidence(e, v, 2)
    assert dict(S.boundary(e)) == {}
    assert dict(S.coboundary(v)) == {}
    assert mm.homology(S).betti == [1, 1]
    S.set_incidence(e, v, 3)
    assert dict(S.boundary(e)) == {v: 1}
    assert mm.homology(S).betti == [0, 0]
    # over z5 a 7 is stored as 2, on both sides
    F = mm.SComplex(mm.PrimeField(5))
    v = F.add_cell(0)
    e = F.add_cell(1)
    F.set_incidence(e, v, 7)
    assert F.incidence(e, v) == 2
    assert dict(F.coboundary(v)) == {e: 2}
    F.set_incidence(e, v, -1)
    assert F.incidence(e, v) == 4


def test_validate_catches_broken_dd():
    S = mm.SComplex(mm.INTEGERS)
    v = S.add_cell(0)
    e = S.add_cell(1)
    t = S.add_cell(2)
    S.set_incidence(e, v, 1)
    S.set_incidence(t, e, 1)
    with pytest.raises(ComplexError):
        S.validate()


def test_validate_names_a_pair_whose_dd_is_nonzero():
    # a triangle 6, whose dd cancels, and a 2-cell 7 = bc + ab, whose dd
    # is c - a: the entry at b comes first and cancels, those at c and a
    # do not
    for ring in (mm.INTEGERS, mm.RATIONALS):
        S = mm.SComplex(ring)
        a, b, c = (S.add_cell(0) for _ in range(3))
        for s, t in ((a, b), (b, c), (a, c)):
            e = S.add_cell(1)
            S.set_incidence(e, s, -1)
            S.set_incidence(e, t, 1)
        for coefficients in ((1, 1, -1), (1, 1, 0)):
            x = S.add_cell(2)
            for e, v in zip((4, 3, 5), coefficients):
                S.set_incidence(x, e, v)
        with pytest.raises(ComplexError,
                           match=r"dd != 0 at cells 7 -> [02]$"):
            S.validate()
        S.remove_cell(7)
        S.validate()


def test_only_complexes_reads_the_tables():
    # the table format stays behind SComplex's methods; tests may read it
    table = re.compile(r"\._(faces|cofaces|dims|count)\b")
    readers = [f"{path.name}:{n}"
               for path in sorted(Path(mm.__file__).parent.glob("*.py"))
               if path.name != "complexes.py"
               for n, line in enumerate(
                   path.read_text(encoding="utf-8").splitlines(), 1)
               if table.search(line)]
    assert readers == []


def test_hand_built_s_complex():
    # an interval: two endpoints, one edge, boundary b - a
    S = mm.SComplex(mm.INTEGERS)
    a = S.add_cell(0)
    b = S.add_cell(0)
    e = S.add_cell(1)
    S.set_incidence(e, a, -1)
    S.set_incidence(e, b, 1)
    S.validate()
    assert dict(S.boundary(e)) == {a: -1, b: 1}


def test_vertex_neighbors_and_subcomplex():
    S = helpers.full_triangle()
    assert helpers.vertex_neighbors(S, 0) == {1, 2}
    sub = mm.full_subcomplex(S, {0, 1})
    assert set(sub.verts) == {(0,), (1,), (0, 1)}
    sub.validate()


def test_full_subcomplex_keeps_global_ids():
    S = helpers.random_complex(3, n_vertices=9)
    keep = {1, 3, 4, 6, 8}
    sub = mm.full_subcomplex(S, keep)
    for w in sub.verts:
        assert set(w) <= keep
        assert S.cell_with_verts(w) is not None


def test_empty_complex():
    S = mm.SComplex()
    assert len(S) == 0
    assert S.max_dim == -1
    assert S.cells() == []
    S.validate()


def test_closure_of_random_simplices_is_closed():
    rng = random.Random(7)
    tops = [rng.sample(range(10), rng.randint(1, 4)) for _ in range(6)]
    S = mm.build_simplicial(10, tops)
    for c, w in enumerate(S.verts):
        if len(w) > 1:
            for i in range(len(w)):
                assert S.cell_with_verts(w[:i] + w[i + 1:]) in \
                    helpers.faces(S, c)

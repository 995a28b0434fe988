import math
import random
import time

import pytest

import multimorse as mm
from multimorse.complexes import ComplexError
from multimorse.filtration import GradeError
from multimorse.matching import MatchingError

import helpers


def _index(f):
    return mm.lex_indexing(f)


def test_partition_single_edge():
    S = helpers.single_edge()
    f = helpers.grades_of(helpers.EDGE_GRADES)
    P = mm.partition(S, f, _index(f))
    assert P.matched == {1: 2}
    assert P.critical == {0}


def test_partition_triangle_boundary():
    S = helpers.triangle_boundary()
    f = helpers.grades_of(helpers.TRIANGLE_BOUNDARY_GRADES)
    P = mm.partition(S, f, _index(f))
    assert P.matched == {1: S.cell_with_verts((0, 1)),
                         2: S.cell_with_verts((0, 2))}
    # the (1,2) edge has incomparable vertex grades: only step 4 can take it
    assert P.critical == {0, S.cell_with_verts((1, 2))}


def test_partition_full_triangle_and_order():
    S = helpers.full_triangle()
    f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
    P = mm.partition(S, f, _index(f))
    assert P.matched == {1: 3, 2: 4, 5: 6}
    assert list(P.matched) == [1, 2, 5]
    assert P.critical == {0}


def test_partition_all_critical_path():
    S = helpers.path_two_edges()
    f = helpers.grades_of(helpers.PATH_GRADES)
    P = mm.partition(S, f, _index(f))
    assert P.matched == {}
    assert P.critical == set(S.cells())


def test_partition_weak_variant_breaks_tie_by_index():
    S = helpers.single_edge()
    f = helpers.grades_of([(5.0, 5.0), (5.0, 5.0)])
    strict = mm.partition(S, f, _index(f), variant="strict")
    assert strict.matched == {} and strict.critical == {0, 1, 2}
    weak = mm.partition(S, f, _index(f), variant="weak")
    assert weak.matched == {1: 2}
    assert weak.critical == {0}


def test_partition_deterministic_and_thread_independent():
    for seed in (5, 9):
        S = helpers.random_complex(seed)
        f = helpers.random_grades(seed, 12)
        index = _index(f)
        for variant in ("strict", "weak"):
            once = mm.partition(S, f, index, variant)
            again = mm.partition(S, f, index, variant)
            assert list(once.matched.items()) == list(again.matched.items())
            assert once.critical == again.critical


def test_partition_invariants_on_random_complexes():
    for seed in range(8):
        S = helpers.random_complex(seed)
        f = helpers.random_grades(seed + 50, 12)
        index = _index(f)
        for variant in ("strict", "weak"):
            P = mm.partition(S, f, index, variant)
            helpers.assert_matching_invariants(S, f, index, P)
            helpers.assert_max_index_laws(S, index, P)


def test_partition_kahn_indexing_agrees_on_invariants():
    S = helpers.random_complex(2)
    f = helpers.random_grades(77, 12)
    index = mm.topo_sort_kahn(mm.build_dag(f))
    P = mm.partition(S, f, index)
    helpers.assert_matching_invariants(S, f, index, P)
    helpers.assert_max_index_laws(S, index, P)


def _read_back(S, f, tmp_path):
    """S written as a reduced file and read back: the cells and their
    coefficients, without vertex tuples."""
    path = str(tmp_path / "reduced.txt")
    mm.write_reduced(path, S, mm.entry_grades(S, f), f.k)
    return mm.read_reduced(path, S.ring)[0]


def test_partition_input_errors(tmp_path):
    S = helpers.single_edge()
    f = helpers.grades_of(helpers.EDGE_GRADES)
    with pytest.raises(MatchingError):
        mm.partition(_read_back(S, f, tmp_path), f, [0, 1])
    with pytest.raises(MatchingError):
        mm.partition(S, f, [0])
    with pytest.raises(MatchingError):
        mm.partition(S, f, [1, 1])
    with pytest.raises(MatchingError):
        mm.partition(S, f, [0, 1], variant="loose")


def _corpus_grades(rng, n, k, tied):
    if tied:
        return helpers.grades_of(
            [[rng.randint(0, 2) for _ in range(k)] for _ in range(n)])
    return helpers.grades_of(
        [[rng.random() for _ in range(k)] for _ in range(n)])


def test_partition_equals_reference():
    rng = random.Random(29)
    cases = 0
    for n, simplices in helpers.meshes_with_solids():
        # the matching never reads coefficients, so each ring takes half
        # of the grade arities
        for ring, arities in ((mm.GF2, (1, 3)), (mm.INTEGERS, (2, 4))):
            S = mm.build_simplicial(n, simplices, ring)
            for k in arities:
                for tied in (True, False):
                    f = _corpus_grades(rng, n, k, tied)
                    shuffled = list(range(n))
                    rng.shuffle(shuffled)
                    for index in (mm.lex_indexing(f),
                                  mm.topo_sort_kahn(mm.build_dag(f)),
                                  shuffled):
                        for variant in ("strict", "weak"):
                            P = mm.partition(S, f, index, variant)
                            matched, critical = helpers.reference_partition(
                                S, f, index, variant)
                            assert list(P.matched.items()) == \
                                list(matched.items())
                            assert P.critical == critical
                            cases += 1
    assert cases == 4 * 4 * 2 * 3 * 2


def test_partition_cost_against_reference():
    mesh = helpers.sphere_mesh(5)
    S = mm.mesh_complex(mesh)
    f = mm.preset_abs_xy(mesh)
    index = mm.lex_indexing(f)

    def best_of_3(fn):
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            fn()
            best = min(best, time.perf_counter() - t0)
        return best

    ours = best_of_3(lambda: mm.partition(S, f, index))
    ref = best_of_3(lambda: helpers.reference_partition(S, f, index))
    assert ours <= 0.6 * ref, f"partition {ours:.3f} s, reference {ref:.3f} s"


def test_ungraded_vertex_is_a_grade_error():
    S = helpers.full_triangle()
    short = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES[:2])
    with pytest.raises(GradeError, match="no vertex 2"):
        mm.partition(S, short, [0, 1, 2])


def test_cell_without_vertex_tuple_is_refused():
    # add_cell gives a cell no vertex tuple, and neither the matching
    # nor the grades may skip it silently
    S = mm.build_simplicial(2, [[0, 1]])
    S.add_cell(0)
    assert len(S) == 4
    f = helpers.grades_of(helpers.EDGE_GRADES)
    with pytest.raises(MatchingError, match="cell 3 has no vertex tuple"):
        mm.partition(S, f, _index(f))
    with pytest.raises(GradeError, match="cell 3 has no vertex tuple"):
        mm.entry_grades(S, f)


def test_complex_without_tuples_gives_typed_errors(tmp_path):
    # a read-back complex carries no vertex tuples, so the matching, the
    # grades and the subcomplexes refuse it by type; a copy keeps them
    # and matches alike
    S = helpers.full_triangle()
    f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
    R = _read_back(S, f, tmp_path)
    assert R.cells() == S.cells()
    with pytest.raises(MatchingError, match="cell 0 has no vertex tuple"):
        mm.partition(R, f, _index(f))
    with pytest.raises(GradeError, match="cell 0 has no vertex tuple"):
        mm.entry_grades(R, f)
    with pytest.raises(MatchingError, match="cell 2 has no vertex tuple"):
        mm.max_index(R, [0, 1, 2], 2)
    with pytest.raises(ComplexError, match="cell 0 has no vertex tuple"):
        mm.full_subcomplex(R, {0, 1, 2})
    P = mm.partition(S, f, _index(f))
    Q = mm.partition(S.copy(), f, _index(f))
    assert list(Q.matched.items()) == list(P.matched.items())
    assert Q.critical == P.critical


def test_max_index():
    S = helpers.full_triangle()
    index = [2, 0, 1]
    assert mm.max_index(S, index, 0) == 2
    assert mm.max_index(S, index, 5) == 1
    assert mm.max_index(S, index, 6) == 2
    for c in (-1, 7):
        with pytest.raises(ComplexError, match=f"no cell {c}"):
            mm.max_index(S, index, c)


def test_modified_hasse_triangle_boundary():
    S = helpers.triangle_boundary()
    f = helpers.grades_of(helpers.TRIANGLE_BOUNDARY_GRADES)
    P = mm.partition(S, f, _index(f))
    adj = mm.modified_hasse(S, P.matched)
    arrows = {(u, w) for u, targets in adj.items() for w in targets}
    up = {(u, w) for u, w in arrows if S.dim(w) > S.dim(u)}
    assert len(arrows) == 6
    assert up == {(1, 3), (2, 4)}
    assert mm.is_acyclic(adj)


def test_modified_hasse_empty_matching_is_plain():
    S = helpers.full_triangle()
    adj = mm.modified_hasse(S, {})
    for u, targets in adj.items():
        assert set(targets) == helpers.faces(S, u)
    assert mm.is_acyclic(adj)


def test_is_acyclic_detects_v_path_loop():
    assert not mm.is_acyclic({0: [1], 1: [2], 2: [3], 3: [0]})
    assert mm.is_acyclic({0: [1, 2], 1: [], 2: [1]})


def test_partition_skips_the_id_of_a_removed_cell():
    # a removed cell leaves an id that holds no cell, None in S.verts:
    # the partition is the one of the complex built without that cell
    mesh = helpers.sphere_mesh(1)
    f = mm.preset_abs_xy(mesh)
    index = _index(f)
    S = mm.mesh_complex(mesh)
    gone = S.cells_of_dim(2)[3]
    triangle = S.verts[gone]
    S.remove_cell(gone)
    assert S.verts[gone] is None
    rebuilt = mm.build_simplicial(
        len(mesh.vertices),
        [w for w in mesh.faces if tuple(sorted(w)) != triangle])

    def by_verts(T):
        P = mm.partition(T, f, index)
        return ([(T.verts[a], T.verts[b]) for a, b in P.matched.items()],
                sorted(T.verts[c] for c in P.critical))

    got = by_verts(S)
    assert got == by_verts(rebuilt)
    assert len(got[0]) == 16

import builtins
import random
import sys
import time

import pytest

import multimorse as mm
from multimorse.oracle import EquivalenceReport, OracleError, _thin

import helpers

# Six-vertex triangulation of the real projective plane. The expected
# homology is pinned only after the structural checks below confirm this
# face list really is a closed non-orientable surface with Euler
# characteristic one.
PROJECTIVE_PLANE_FACES = [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 1, 5),
    (1, 2, 4), (2, 4, 5), (2, 3, 5), (1, 3, 5), (1, 3, 4),
]


def test_homology_of_known_spaces():
    point = mm.build_simplicial(1, [], mm.GF2)
    assert mm.homology(point).betti == [1]
    two = mm.build_simplicial(2, [], mm.GF2)
    assert mm.homology(two).betti == [2]
    circle = helpers.triangle_boundary(mm.RATIONALS)
    assert mm.homology(circle).betti == [1, 1]
    disk = helpers.full_triangle(mm.RATIONALS)
    assert mm.homology(disk).betti == [1, 0, 0]
    sphere = mm.build_simplicial(
        4, [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]], mm.INTEGERS)
    assert mm.homology(sphere, mm.RATIONALS).betti == [1, 0, 1]
    empty = mm.SComplex(mm.GF2)
    assert mm.homology(empty).betti == []


def test_projective_plane_across_rings():
    S = mm.build_simplicial(6, [list(f) for f in PROJECTIVE_PLANE_FACES],
                            mm.INTEGERS)
    assert len(S.cells_of_dim(0)) == 6
    assert len(S.cells_of_dim(1)) == 15
    assert len(S.cells_of_dim(2)) == 10
    for e in S.cells_of_dim(1):
        assert len(S.primary_cofaces(e)) == 2
    assert mm.homology(S, mm.GF2).betti == [1, 1, 1]
    assert mm.homology(S, mm.RATIONALS).betti == [1, 0, 0]
    ranks = mm.homology(S, mm.INTEGERS)
    assert ranks.betti == [1, 0, 0]
    assert ranks.torsion == [[], [2], []]


def test_persistent_rank_on_triangle_boundary():
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    assert mm.persistent_rank(S, grades, (1.0, 0.0), (1.0, 1.0), 0) == 1
    assert mm.persistent_rank(S, grades, (1.0, 0.0), (1.0, 1.0), 1) == 0
    assert mm.persistent_rank(S, grades, (1.0, 1.0), (1.0, 1.0), 1) == 1
    assert mm.persistent_rank(S, grades, (0.0, 0.0), (0.0, 0.0), 0) == 1
    with pytest.raises(OracleError):
        mm.persistent_rank(S, grades, (1.0, 0.0), (0.0, 1.0), 0)


def test_rank_table_triangle_boundary_frozen():
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    table = mm.rank_table(S, grades)
    grid = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert mm.critical_grades(grades) == grid
    pairs = [(a, b) for a in grid for b in grid if mm.leq(a, b)]
    assert len(pairs) == 9
    expected = {}
    for a, b in pairs:
        expected[0, a, b] = 1
        expected[1, a, b] = 1 if a == b == (1.0, 1.0) else 0
    assert table == expected


def test_verify_equivalence_pass():
    S = helpers.full_triangle()
    f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
    grades = mm.entry_grades(S, f)
    P = mm.partition(S, f, mm.lex_indexing(f))
    result = mm.reduce_all(S, P, grades=grades)
    report = mm.verify_equivalence(S, grades, result.complex, result.grades)
    assert report.ok
    assert report.summary() == "PASS checked=18 grades=3"
    assert all(line.startswith("RANK ") for line in report.lines())
    assert "RANK 0 0.0,0.0 1.0,1.0 1" in report.lines()


def test_verify_equivalence_catches_wrong_reduction():
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    point = mm.build_simplicial(1, [], mm.GF2)
    report = mm.verify_equivalence(
        S, grades, point, {0: (0.0, 0.0)})
    assert not report.ok
    assert report.mismatches == [(1, (1.0, 1.0), (1.0, 1.0))]
    assert report.summary().startswith("FAIL mismatches=1 ")
    flagged = [line for line in report.lines() if line.endswith("MISMATCH")]
    assert flagged == ["RANK 1 1.0,1.0 1.0,1.0 1 != 0 MISMATCH"]


def test_rank_monotone_in_both_grades():
    for seed in range(6):
        S = helpers.random_complex(seed, n_vertices=8, n_top=5)
        f = helpers.random_grades(seed + 41, 8)
        grades = mm.entry_grades(S, f)
        table = mm.rank_table(S, grades)
        grid = mm.critical_grades(grades)
        for a in grid:
            for a2 in grid:
                if not mm.leq(a, a2):
                    continue
                for b in grid:
                    if not mm.leq(a2, b):
                        continue
                    for q in range(S.max_dim + 1):
                        # growing the source can only grow the image
                        assert table[q, a, b] <= table[q, a2, b]
                        # growing the target can only kill classes
                        assert table[q, a, a2] >= table[q, a, b]
        # the rank never exceeds either side's Betti number
        for (q, a, b), v in table.items():
            assert v <= min(table[q, a, a], table[q, b, b])


def test_betti_preserved_by_every_reduction_step():
    for seed in (0, 5):
        S = helpers.random_complex(seed, ring=mm.RATIONALS)
        f = helpers.random_grades(seed + 17, 12)
        P = mm.partition(S, f, mm.lex_indexing(f))
        expected = mm.homology(S).betti
        top = S.max_dim
        W = S.copy()
        for s, t in P.matched.items():
            mm.reduce_pair(W, s, t)
            got = mm.homology(W)
            assert [got.betti_of(q) for q in range(top + 1)] == expected


def test_coefficient_views():
    gf2 = helpers.triangle_boundary(mm.GF2)
    with pytest.raises(OracleError):
        mm.homology(gf2, mm.RATIONALS)
    with pytest.raises(OracleError):
        mm.homology(gf2, mm.INTEGERS)
    with pytest.raises(OracleError):
        mm.homology(helpers.triangle_boundary(mm.RATIONALS), mm.get_ring("z"))
    z = helpers.triangle_boundary(mm.INTEGERS)
    assert mm.homology(z, mm.GF2).betti == [1, 1]
    assert mm.homology(z, mm.RATIONALS).betti == [1, 1]
    assert mm.homology(z).torsion == [[], []]
    assert mm.homology(z, mm.get_ring("z5")).betti == [1, 1]


def test_face_closure_guard():
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    grades[3] = (0.0, 0.0)  # edge now enters before its vertex 1
    with pytest.raises(OracleError):
        mm.persistent_rank(S, grades, (0.0, 0.0), (0.0, 0.0), 0)


def test_grid_thinning():
    grid = [(float(i),) for i in range(7)]
    assert _thin(grid, None) == grid
    assert _thin(grid, 7) == grid
    assert _thin(grid, 2) == [(0.0,), (6.0,)]
    assert _thin(grid, 3) == [(0.0,), (3.0,), (6.0,)]
    assert _thin(grid, 1) == [(6.0,)]
    with pytest.raises(OracleError):
        _thin(grid, 0)
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    report = mm.verify_equivalence(S, grades, S, dict(grades), max_grades=2)
    assert report.grid == [(0.0, 0.0), (1.0, 1.0)]
    assert report.ok


def test_report_flags_exactly_the_mismatched_lines():
    g0, g1 = (0.0, 0.0), (1.0, 1.0)
    orig = {(0, g0, g0): 1, (0, g0, g1): 1, (0, g1, g1): 2, (1, g1, g1): 1}
    red = dict(orig)
    red[0, g0, g1] = 3
    red[1, g1, g1] = 0
    bad = [(0, g0, g1), (1, g1, g1)]
    report = EquivalenceReport(False, 1, [g0, g1], orig, red, bad)
    assert report.lines() == [
        "RANK 0 0.0,0.0 0.0,0.0 1",
        "RANK 0 0.0,0.0 1.0,1.0 1 != 3 MISMATCH",
        "RANK 0 1.0,1.0 1.0,1.0 2",
        "RANK 1 1.0,1.0 1.0,1.0 1 != 0 MISMATCH",
    ]
    assert report.summary() == "FAIL mismatches=2 checked=4 grades=2"


def test_rank_table_agrees_with_persistent_rank():
    # rank_table shares its per-grade buckets across pairs; persistent_rank
    # recomputes each entry from scratch
    for seed in range(3):
        S = helpers.random_complex(seed, ring=mm.get_ring("z5"))
        grades = mm.entry_grades(S, helpers.random_grades(seed, 12, levels=3))
        table = mm.rank_table(S, grades)
        assert table
        for (q, alpha, beta), r in table.items():
            assert mm.persistent_rank(S, grades, alpha, beta, q) == r


def test_torsion_matches_determinantal_divisors():
    rng = random.Random(7)
    with_torsion = 0
    for _ in range(320):
        n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
        bound = rng.choice([2, 3, 4, 6, 9])
        m = [[rng.randint(-bound, bound) if rng.random() < 0.7 else 0
              for _ in range(n_cols)] for _ in range(n_rows)]
        expected = helpers.reference_torsion(m)
        ranks = mm.homology(helpers.wedge_with_cells(m), mm.INTEGERS)
        assert ranks.torsion[1] == expected, m
        with_torsion += bool(expected)
    assert with_torsion >= 50


def test_torsion_of_known_spaces():
    klein = helpers.klein_bottle()
    assert len(klein) == 16 + 48 + 32
    for e in klein.cells_of_dim(1):
        assert len(klein.primary_cofaces(e)) == 2
    assert mm.homology(klein, mm.GF2).betti == [1, 2, 1]
    ranks = mm.homology(klein, mm.INTEGERS)
    assert ranks.betti == [1, 1, 0]
    assert ranks.torsion == [[], [2], []]
    # a disk attached to a circle by a map of degree 3
    ranks = mm.homology(helpers.wedge_with_cells([[3]]), mm.INTEGERS)
    assert ranks.betti == [1, 0, 0]
    assert ranks.torsion == [[], [3], []]


def test_integer_homology_cost_against_rationals():
    # the reduced torus of the maps-ties benchmark: 24 x 24 grid, each
    # point of a 4 x 4 grade grid on 36 vertices, weak partition over z
    n = 24
    S = helpers.grid_torus(n, mm.INTEGERS)
    values = [(float(a), float(b)) for b in range(4) for a in range(4)] * 36
    random.Random(1).shuffle(values)
    f = mm.MeasuringFunction(values)
    P = mm.partition(S, f, mm.topo_sort_kahn(mm.build_dag(f)), "weak")
    C = mm.reduce_all(S, P, grades=mm.entry_grades(S, f)).complex

    def best_of_3(ring):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            ranks = mm.homology(C, ring)
            best = min(best, time.perf_counter() - t0)
        return best, ranks

    t_z, ranks = best_of_3(mm.INTEGERS)
    t_q, _ = best_of_3(mm.RATIONALS)
    assert ranks.betti == [1, 2, 1]
    assert ranks.torsion == [[], [], []]
    assert t_z <= 2 * t_q, f"over z {t_z:.3f} s, over q {t_q:.3f} s"


def test_integer_homology_needs_only_the_standard_library(monkeypatch):
    real_import = builtins.__import__

    def stdlib_only(name, globals=None, locals=None, fromlist=(), level=0):
        top = name.split(".")[0]
        if level == 0 and top not in sys.stdlib_module_names \
                and top != "multimorse":
            raise ImportError(f"{name} is outside the standard library")
        return real_import(name, globals, locals, fromlist, level)

    S = mm.build_simplicial(6, [list(f) for f in PROJECTIVE_PLANE_FACES],
                            mm.INTEGERS)
    with monkeypatch.context() as patch:
        patch.setattr(builtins, "__import__", stdlib_only)
        ranks = mm.homology(S, mm.INTEGERS)
    assert ranks.torsion == [[], [2], []]

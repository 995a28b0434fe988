import builtins
import random
import sys
import time

import pytest

import multimorse as mm
from multimorse import oracle
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
    empty_z = mm.SComplex(mm.INTEGERS)
    ranks = mm.homology(empty_z)
    assert ranks.betti == [] and ranks.torsion == []
    ranks = mm.homology(empty_z, mm.RATIONALS)
    assert ranks.betti == [] and ranks.torsion is None


def test_projective_plane_across_rings():
    S = mm.build_simplicial(6, [list(f) for f in PROJECTIVE_PLANE_FACES],
                            mm.INTEGERS)
    assert len(S.cells_of_dim(0)) == 6
    assert len(S.cells_of_dim(1)) == 15
    assert len(S.cells_of_dim(2)) == 10
    for e in S.cells_of_dim(1):
        assert len(S.coboundary(e)) == 2
    gf2 = mm.build_simplicial(6, [list(f) for f in PROJECTIVE_PLANE_FACES],
                              mm.GF2)
    assert mm.homology(gf2).betti == [1, 1, 1]
    with pytest.raises(OracleError, match="cannot view z coefficients in z2"):
        mm.homology(S, mm.GF2)
    assert mm.homology(S, mm.RATIONALS).betti == [1, 0, 0]
    ranks = mm.homology(S, mm.INTEGERS)
    assert ranks.betti == [1, 0, 0]
    assert ranks.torsion == [[], [2], []]


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
    assert mm.rank_table(mm.SComplex(mm.GF2), {}) == {}


def test_verify_equivalence_pass():
    S = helpers.full_triangle()
    f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
    grades = mm.entry_grades(S, f)
    P = mm.partition(S, f, mm.lex_indexing(f))
    result = mm.reduce_all(S.copy(), P, grades=dict(grades))
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
            assert (got.betti + [0] * (top + 1))[:top + 1] == expected


def test_coefficient_views():
    gf2 = helpers.triangle_boundary(mm.GF2)
    with pytest.raises(OracleError):
        mm.homology(gf2, mm.RATIONALS)
    with pytest.raises(OracleError):
        mm.homology(gf2, mm.INTEGERS)
    with pytest.raises(OracleError):
        mm.homology(helpers.triangle_boundary(mm.RATIONALS), mm.get_ring("z"))
    z = helpers.triangle_boundary(mm.INTEGERS)
    with pytest.raises(OracleError):
        mm.homology(z, mm.GF2)
    assert mm.homology(z, mm.RATIONALS).betti == [1, 1]
    assert mm.homology(z).torsion == [[], []]
    with pytest.raises(OracleError):
        mm.homology(z, mm.get_ring("z5"))


def test_face_closure_guard():
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    grades[3] = (0.0, 0.0)  # edge now enters before its vertex 1
    with pytest.raises(OracleError):
        mm.rank_table(S, grades, q_max=0, grid=[(0.0, 0.0)])
    with pytest.raises(OracleError):
        mm.rank_table(S, grades)
    # Edge 3 = (0, 1) at (0, 0), vertex 1 at (0, 2): the grid grade
    # (0, 2) holds both, (1, 1) the edge alone; the grades are refused
    # whatever the grid.
    grades = {0: (0.0, 0.0), 1: (0.0, 2.0), 2: (0.0, 0.0),
              3: (0.0, 0.0), 4: (0.0, 0.0), 5: (0.0, 2.0)}
    first, second = (0.0, 2.0), (1.0, 1.0)
    with pytest.raises(OracleError, match="face 1 of cell 3"):
        mm.rank_table(S, grades, grid=[first])
    with pytest.raises(OracleError, match="face 1 of cell 3"):
        mm.rank_table(S, grades, grid=[first, second])
    with pytest.raises(OracleError):
        mm.verify_equivalence(S, grades, S.copy(), dict(grades))


def test_verify_equivalence_refuses_the_original_itself():
    # reduce_all reduces in place, so its result is its input; compared
    # with itself, a complex would always pass
    S = helpers.full_triangle()
    f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
    grades = mm.entry_grades(S, f)
    mm.reduce_all(S, mm.partition(S, f, mm.lex_indexing(f)), grades=grades)
    for reduced, grades_r in ((S, grades), (S.copy(), grades),
                              (S, dict(grades))):
        with pytest.raises(OracleError, match="the original itself"):
            mm.verify_equivalence(S, grades, reduced, grades_r)


def test_verify_over_z_compares_torsion():
    S = mm.build_simplicial(6, [list(f) for f in PROJECTIVE_PLANE_FACES],
                            mm.INTEGERS)
    grades = {c: (0.0,) for c in S.cells()}
    point = mm.build_simplicial(1, [], mm.INTEGERS)
    # over Q both are a point; over z the plane has torsion [2] in H_1
    report = mm.verify_equivalence(S, grades, point, {0: (0.0,)})
    assert not report.ok
    assert report.mismatches == []
    assert report.summary() == "FAIL mismatches=1 checked=3 grades=1"
    assert report.lines() == ["RANK 0 0.0 0.0 1", "RANK 1 0.0 0.0 0",
                              "RANK 2 0.0 0.0 0",
                              "TORSION 1 0.0 [2] != [] MISMATCH"]
    # a Morse reduction pairs cells with unit incidence: it keeps torsion
    for seed in range(4):
        f = helpers.random_grades(seed, 6, levels=3)
        grades = mm.entry_grades(S, f)
        result = mm.reduce_all(S.copy(),
                               mm.partition(S, f, mm.lex_indexing(f)),
                               grades=dict(grades))
        report = mm.verify_equivalence(S, grades, result.complex,
                                       result.grades)
        assert report.ok, seed
        assert all(line.startswith("RANK ") for line in report.lines())


def test_grid_thinning():
    grid = [(float(i),) for i in range(7)]
    assert _thin(grid, None) == grid
    assert _thin(grid, 7) == grid
    assert _thin(grid, 2) == [(0.0,), (6.0,)]
    assert _thin(grid, 3) == [(0.0,), (3.0,), (6.0,)]
    assert _thin(grid, 1) == [(6.0,)]
    # m strictly rising grades from first to last, for every m < n
    for n in range(3, 41):
        line = [(float(x),) for x in range(n)]
        for m in range(2, n):
            picked = _thin(line, m)
            assert len(picked) == m
            assert picked[0] == line[0] and picked[-1] == line[-1]
            assert all(a < b for a, b in zip(picked, picked[1:]))
    with pytest.raises(OracleError):
        _thin(grid, 0)
    S = helpers.triangle_boundary()
    grades = mm.entry_grades(S, helpers.grades_of(
        helpers.TRIANGLE_BOUNDARY_GRADES))
    report = mm.verify_equivalence(S, grades, S.copy(), dict(grades),
                                   max_grades=2)
    assert report.grid == [(0.0, 0.0), (1.0, 1.0)]
    assert report.ok


def test_report_flags_exactly_the_mismatched_lines():
    g0, g1 = (0.0, 0.0), (1.0, 1.0)
    orig = {(0, g0, g0): 1, (0, g0, g1): 1, (0, g1, g1): 2, (1, g1, g1): 1}
    red = dict(orig)
    red[0, g0, g1] = 3
    red[1, g1, g1] = 0
    bad = [(0, g0, g1), (1, g1, g1)]
    report = EquivalenceReport([g0, g1], orig, red, bad)
    assert report.lines() == [
        "RANK 0 0.0,0.0 0.0,0.0 1",
        "RANK 0 0.0,0.0 1.0,1.0 1 != 3 MISMATCH",
        "RANK 0 1.0,1.0 1.0,1.0 2",
        "RANK 1 1.0,1.0 1.0,1.0 1 != 0 MISMATCH",
    ]
    assert report.summary() == "FAIL mismatches=2 checked=4 grades=2"


def test_rank_table_agrees_with_persistent_rank():
    # against the matrix-rank formula of the helpers, which shares no
    # elimination code with the oracle
    fld = mm.get_ring("z5")
    for seed in range(3):
        S = helpers.random_complex(seed, ring=fld)
        grades = mm.entry_grades(S, helpers.random_grades(seed, 12, levels=3))
        table = mm.rank_table(S, grades)
        assert table
        for (q, alpha, beta), r in table.items():
            want = helpers.formula_persistent_rank(S, grades, alpha, beta,
                                                   q, fld)
            assert r == want


def _random_case_grades(rng, n, k, tied):
    if tied:
        return mm.MeasuringFunction(
            [tuple(float(rng.randint(0, 2)) for _ in range(k))
             for _ in range(n)])
    return mm.MeasuringFunction(
        [tuple(rng.random() for _ in range(k)) for _ in range(n)])


def test_rank_table_matches_reference():
    # the reference eliminates cycles and boundaries apart and pushes all
    # of Z_q(alpha) through every pair
    rings = [mm.GF2, mm.get_ring("z5"), mm.RATIONALS, mm.INTEGERS]
    rng = random.Random(23)
    for seed in range(36):
        ring = rings[seed % 4]
        k = 1 + seed % 3
        tied = seed % 2 == 0
        q_max = (None, 0, 1)[seed // 4 % 3]
        S = helpers.random_complex(seed, n_top=16, ring=ring)
        grades = mm.entry_grades(S, _random_case_grades(rng, 12, k, tied))
        grid = None
        if seed // 12 == 1:
            grid = _thin(mm.critical_grades(grades), 5)
        elif seed // 12 == 2:
            # a subset of the entry grades plus grades no cell has
            entries = mm.critical_grades(grades)
            grid = rng.sample(entries, min(4, len(entries)))
            grid.append(tuple(max(g[i] for g in entries) for i in range(k)))
            grid.append(tuple(rng.random() for _ in range(k)))
        table = mm.rank_table(S, grades, q_max=q_max, grid=grid)
        assert table
        assert table == helpers.reference_rank_table(
            S, grades, q_max=q_max, grid=grid), seed
    # reduce_all outputs over q and z are cell complexes, not simplicial
    # ones; shuffling their ids also breaks every link between id order
    # and dimension, the general case of the oracle's top-down clearing
    cases = [helpers.klein_bottle(), helpers.klein_bottle(ring=mm.GF2),
             helpers.random_complex(5, n_top=16, ring=mm.INTEGERS),
             helpers.random_complex(5, n_top=16, ring=mm.get_ring("z3")),
             helpers.random_complex(6, n_top=16, ring=mm.RATIONALS)]
    for S in cases:
        n = len(S.cells_of_dim(0))
        for variant, tied in (("strict", False), ("weak", True)):
            f = _random_case_grades(rng, n, 2, tied)
            result = mm.reduce_all(
                S.copy(), mm.partition(S, f, mm.lex_indexing(f), variant),
                grades=mm.entry_grades(S, f))
            assert len(result.complex) < len(S)
            for C, grades in ((result.complex, result.grades),
                              _shuffled_ids(result.complex, result.grades,
                                            rng)):
                grid = _thin(mm.critical_grades(grades), 12)
                assert mm.rank_table(C, grades, grid=grid) == \
                    helpers.reference_rank_table(C, grades, grid=grid), \
                    (S.ring, variant)


def _shuffled_ids(S, grades, rng):
    """A copy of S and its grades with the cell ids permuted at random."""
    ids = S.cells()
    new = dict(zip(ids, rng.sample(ids, len(ids))))
    out = mm.SComplex(S.ring)
    for c in ids:
        out.add_cell(S.dim(c), new[c])
    for c in ids:
        for t, v in S.boundary(c):
            out.set_incidence(new[c], new[t], v)
    return out, {new[c]: g for c, g in grades.items()}


def test_rank_table_matches_reference_over_a_viewing_field():
    # integer incidences 2 and 3, not units over z, are read as they are
    # and eliminated over q
    rng = random.Random(4)
    for _ in range(12):
        m = [[rng.choice([0, 1, -1, 2, 3, -2]) for _ in range(3)]
             for _ in range(3)]
        S = helpers.wedge_with_cells(m)
        grades = {0: (0.0, 0.0)}
        for c in S.cells_of_dim(1):
            grades[c] = (float(rng.randint(0, 2)), float(rng.randint(0, 2)))
        for c in S.cells_of_dim(2):
            below = [grades[t] for t, _ in S.boundary(c)] + [(0.0, 0.0)]
            grades[c] = tuple(max(g[i] for g in below) + rng.randint(0, 1)
                              for i in range(2))
        assert mm.rank_table(S, grades) == \
            helpers.reference_rank_table(S, grades), m
    # a disk on a loop of degree 2, entering before the loop: the loop is
    # a face graded above its cell
    S = helpers.wedge_with_cells([[2]])
    grades = {0: (0.0, 0.0), 1: (1.0, 1.0), 2: (0.0, 0.0)}
    with pytest.raises(OracleError, match="face 1 of cell 2"):
        mm.rank_table(S, grades)


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
        assert len(klein.coboundary(e)) == 2
    assert mm.homology(helpers.klein_bottle(ring=mm.GF2)).betti == [1, 2, 1]
    ranks = mm.homology(klein, mm.INTEGERS)
    assert ranks.betti == [1, 1, 0]
    assert ranks.torsion == [[], [2], []]
    # a disk attached to a circle by a map of degree 3
    ranks = mm.homology(helpers.wedge_with_cells([[3]]), mm.INTEGERS)
    assert ranks.betti == [1, 0, 0]
    assert ranks.torsion == [[], [3], []]


def _reduced_maps_ties_torus():
    """The reduced torus of the maps-ties benchmark: 24 x 24 grid, each
    point of a 4 x 4 grade grid on 36 vertices, weak partition over z."""
    S = helpers.grid_torus(24, mm.INTEGERS)
    values = [(float(a), float(b)) for b in range(4) for a in range(4)] * 36
    random.Random(1).shuffle(values)
    f = mm.MeasuringFunction(values)
    P = mm.partition(S, f, mm.topo_sort_kahn(mm.build_dag(f)), "weak")
    return mm.reduce_all(S, P, grades=mm.entry_grades(S, f)).complex


def test_integer_homology_cost_against_rationals():
    C = _reduced_maps_ties_torus()

    def timed(ring):
        t0 = time.perf_counter()
        ranks = mm.homology(C, ring)
        return time.perf_counter() - t0, ranks

    # best of 3 per ring, the z and q runs alternating so that a slow
    # spell of the host does not land on one ring only
    t_z = t_q = float("inf")
    for _ in range(3):
        dt, ranks = timed(mm.INTEGERS)
        t_z = min(t_z, dt)
        t_q = min(t_q, timed(mm.RATIONALS)[0])
    assert ranks.betti == [1, 2, 1]
    assert ranks.torsion == [[], [], []]
    assert t_z <= 2 * t_q, f"over z {t_z:.3f} s, over q {t_q:.3f} s"


def test_integer_homology_leaves_no_dense_smith_residue(monkeypatch):
    # the count behind the timing gate above: on the same complex the
    # sparse unit-pivot pass clears every column, so the dense Smith
    # step receives an empty matrix in every dimension
    C = _reduced_maps_ties_torus()
    shapes = []
    smith = oracle._smith_diagonal

    def recording(m):
        shapes.append((len(m), len(m[0]) if m else 0))
        return smith(m)

    monkeypatch.setattr(oracle, "_smith_diagonal", recording)
    assert mm.homology(C, mm.INTEGERS).torsion == [[], [], []]
    assert shapes == [(0, 0)] * 3


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


def test_rank_table_cost_against_reference():
    # the verify-sampled workload's oracle calls: 20 star samples of a
    # rotated L=4 sphere over z2, each original and reduced, on the
    # thinned grid verify uses
    mesh = helpers.rotated_sphere_mesh(4, 3)
    S = mm.mesh_complex(mesh)
    f = mm.preset_abs_xy(mesh)
    index = mm.lex_indexing(f)
    work = []
    for _, sub in helpers.sample_complexes(S, 20, 400, 3):
        grades = mm.entry_grades(sub, f)
        red = mm.reduce_all(sub.copy(), mm.partition(sub, f, index),
                            grades=dict(grades))
        grid = _thin(mm.critical_grades(grades), 10)
        q_hi = max(sub.max_dim, red.complex.max_dim, 0)
        work.append((sub, grades, grid, q_hi))
        work.append((red.complex, red.grades, grid, q_hi))

    def run(table_fn):
        t0 = time.perf_counter()
        tables = [table_fn(C, g, q_max=q, grid=grid)
                  for C, g, grid, q in work]
        return time.perf_counter() - t0, tables

    best_new = best_ref = float("inf")
    for _ in range(3):
        t_new, new = run(mm.rank_table)
        t_ref, ref = run(helpers.reference_rank_table)
        best_new, best_ref = min(best_new, t_new), min(best_ref, t_ref)
    assert new == ref
    assert best_new <= 0.6 * best_ref, \
        f"rank_table {best_new:.3f} s, reference {best_ref:.3f} s"

"""Acceptance gate: one test per release criterion, run with -v for a
pass/fail line per criterion.

1. persistence preservation on a fixed random corpus plus the worked
   examples, over Z/2 and Q, both matching variants, both orders
2. worked-example exactness
3. structural matching invariants, zero tolerance
4. per-step reduction algebra, zero tolerance
5. benchmark triangle meshes: exact input counts, reduction ratio,
   sampled-submesh certification (skipped unless the meshes are present)
6. linear scaling of matching time under mesh subdivision, with a
   deterministic companion that counts the cells the partition visits
7. indexing validity on one thousand random grade sets
8. maximum-vertex-index laws on every produced matching
9. the local-pair pass, alone and after the matching, leaves the
   minimal size over Z/2, Q and Z/5 on criterion 1's corpus, and the
   matching alone never goes below it
"""

import functools
import math
import os
import random
import statistics
import time
from pathlib import Path

import pytest

import multimorse as mm
from multimorse import matching

import helpers

CORPUS_SEEDS = tuple(range(50))
ALGEBRA_SEEDS = tuple(range(15))
RING_NAMES = ("z2", "q")

MESH_COUNTS = {
    "tie.off": (2014, 5944, 3827),
    "space_shuttle.off": (2376, 6330, 3952),
    "x_wing.off": (3099, 9190, 6076),
    "space_station.off": (5749, 15949, 10237),
}


def _corpus_shape(seed):
    return 10 + seed % 7, 6 + seed % 4


@functools.lru_cache(maxsize=None)
def _corpus_complex(seed, ring_name):
    n_verts, n_top = _corpus_shape(seed)
    return helpers.random_complex(seed, n_vertices=n_verts, n_top=n_top,
                                  ring=mm.get_ring(ring_name))


@functools.lru_cache(maxsize=None)
def _corpus_grades(seed):
    n_verts, _ = _corpus_shape(seed)
    return helpers.random_grades(seed + 1000, n_verts)


def _worked_examples(ring_name="z2"):
    ring = mm.get_ring(ring_name)
    return [
        (helpers.triangle_boundary(ring),
         helpers.grades_of(helpers.TRIANGLE_BOUNDARY_GRADES)),
        (helpers.full_triangle(ring),
         helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)),
        (helpers.path_two_edges(ring),
         helpers.grades_of(helpers.PATH_GRADES)),
    ]


def _all_test_complexes():
    """Everything criteria 3 and 8 quantify over: the random corpus, the
    worked examples, and two meshes."""
    cases = [(_corpus_complex(seed, "z2"), _corpus_grades(seed))
             for seed in CORPUS_SEEDS]
    cases.extend(_worked_examples())
    octa = mm.Mesh(helpers.OCTAHEDRON_VERTICES, helpers.OCTAHEDRON_FACES)
    cases.append((mm.mesh_complex(octa), mm.preset_abs_xy(octa)))
    sphere = helpers.sphere_mesh(1)
    cases.append((mm.mesh_complex(sphere), mm.preset_abs_xy(sphere)))
    return cases


def test_criterion_1_persistence_preservation():
    start = time.perf_counter()
    checked = 0
    for ring_name in RING_NAMES:
        cases = [(_corpus_complex(seed, ring_name), _corpus_grades(seed))
                 for seed in CORPUS_SEEDS]
        cases.extend(_worked_examples(ring_name))
        for S, f in cases:
            index = mm.lex_indexing(f)
            grades = mm.entry_grades(S, f)
            grid = mm.critical_grades(grades)
            table_s = mm.rank_table(S, grades, q_max=S.max_dim)
            for variant in ("strict", "weak"):
                P = mm.partition(S, f, index, variant)
                result = mm.reduce_all(S.copy(), P, grades=dict(grades))
                table_c = mm.rank_table(result.complex, result.grades,
                                        q_max=S.max_dim, grid=grid)
                assert table_c == table_s, (
                    f"rank table changed: seed corpus, ring {ring_name}, "
                    f"{variant}")
                checked += 1
    assert checked == len(RING_NAMES) * (len(CORPUS_SEEDS) + 3) * 2
    assert time.perf_counter() - start < 300.0


def test_criterion_2_worked_example_exactness():
    S = helpers.triangle_boundary()
    f = helpers.grades_of(helpers.TRIANGLE_BOUNDARY_GRADES)
    P = mm.partition(S, f, mm.lex_indexing(f))
    assert P.matched == {1: 3, 2: 4}
    assert P.critical == {0, 5}
    result = mm.reduce_all(S, P)
    assert result.complex.cells() == [0, 5]
    assert dict(result.complex.boundary(5)) == {}

    S = helpers.full_triangle()
    f = helpers.grades_of(helpers.FULL_TRIANGLE_GRADES)
    P = mm.partition(S, f, mm.lex_indexing(f))
    result = mm.reduce_all(S, P)
    assert result.complex.cells() == [0]

    S = helpers.path_two_edges()
    f = helpers.grades_of(helpers.PATH_GRADES)
    P = mm.partition(S, f, mm.lex_indexing(f))
    assert P.matched == {}
    assert P.critical == set(S.cells())
    result = mm.reduce_all(S.copy(), P)
    assert result.complex.cells() == S.cells()


def test_criterion_3_structural_invariants():
    for S, f in _all_test_complexes():
        index = mm.lex_indexing(f)
        for variant in ("strict", "weak"):
            P = mm.partition(S, f, index, variant)
            helpers.assert_matching_invariants(S, f, index, P)


def test_criterion_4_reduction_algebra():
    for ring_name in ("z2", "q", "z"):
        for seed in ALGEBRA_SEEDS:
            S = _corpus_complex(seed, ring_name)
            f = _corpus_grades(seed)
            P = mm.partition(S, f, mm.lex_indexing(f))
            pivots = {(s, t): S.incidence(t, s) for s, t in P.matched.items()}
            W = S.copy()
            remaining = dict(P.matched)
            for s, t in P.matched.items():
                pre = W.copy()
                step = mm.reduce_pair(W, s, t)
                W.validate()  # includes boundary-of-boundary = 0
                del remaining[s]
                for rs, rt in remaining.items():
                    assert W.incidence(rt, rs) == pivots[(rs, rt)]
                helpers.assert_step_algebra(pre, W, step)


def _mesh_dir():
    env = os.environ.get("MULTIMORSE_MESH_DIR")
    if env:
        return Path(env)
    return Path(__file__).resolve().parent.parent / "data" / "meshes"


def test_criterion_5_benchmark_meshes():
    base = _mesh_dir()
    missing = [name for name in MESH_COUNTS if not (base / name).is_file()]
    if missing:
        pytest.skip(
            f"benchmark meshes not available (missing {', '.join(missing)} "
            f"under {base}); set MULTIMORSE_MESH_DIR or place the four "
            f"triangle meshes under data/meshes to enable this criterion")
    for name, (nv, ne, nf) in MESH_COUNTS.items():
        mesh = mm.read_mesh(str(base / name))
        S = mm.mesh_complex(mesh)
        counts = tuple(len(S.cells_of_dim(q)) for q in range(3))
        assert counts == (nv, ne, nf), f"{name}: input counts {counts}"
        assert len(S) == nv + ne + nf

        f = mm.preset_abs_xy(mesh)
        index = mm.lex_indexing(f)
        t0 = time.perf_counter()
        P = mm.partition(S, f, index)
        grades = mm.entry_grades(S, f)
        result = mm.reduce_all(S.copy(), P, grades=dict(grades))
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"{name}: matching+reduction took {elapsed:.1f}s"
        ratio = len(result.complex) / len(S)
        assert ratio <= 0.85, f"{name}: reduction ratio {ratio:.3f}"

        t0 = time.perf_counter()
        samples = helpers.sample_complexes(S, 20, 2000, seed=0)
        assert len(samples) >= 20
        for center, sub in samples:
            sub_grades = mm.entry_grades(sub, f)
            sub_p = mm.partition(sub, f, index)
            sub_r = mm.reduce_all(sub.copy(), sub_p,
                                  grades=dict(sub_grades))
            report = mm.verify_equivalence(sub, sub_grades, sub_r.complex,
                                           sub_r.grades, max_grades=10)
            assert report.ok, f"{name}: submesh at {center} {report.summary()}"
        elapsed = time.perf_counter() - t0
        assert elapsed < 600.0, f"{name}: verification took {elapsed:.0f}s"


def test_criterion_6_matching_scales_linearly():
    sizes = []
    times = []
    for level in (2, 3, 4, 5):
        mesh = helpers.sphere_mesh(level)
        S = mm.mesh_complex(mesh)
        f = mm.preset_abs_xy(mesh)
        index = mm.lex_indexing(f)
        best = math.inf
        for _ in range(3):
            t0 = time.perf_counter()
            mm.partition(S, f, index)
            best = min(best, time.perf_counter() - t0)
        sizes.append(len(S))
        times.append(best)
    slope, intercept = statistics.linear_regression(sizes, times)
    mean = statistics.fmean(times)
    residual = sum((y - (slope * x + intercept)) ** 2
                   for x, y in zip(sizes, times))
    r2 = 1.0 - residual / sum((y - mean) ** 2 for y in times)
    assert slope > 0
    assert r2 >= 0.98, f"sizes={sizes} times={times} r2={r2:.4f}"


def test_criterion_6_partition_visits_are_linear_in_cells(monkeypatch):
    # Each recursion level hands a cell, minus its apex, to a lower link,
    # so a cell of dimension d is visited at most d + 1 times: the cells
    # passed to _partition_core sum to at most sum(dim c + 1).
    visits = [0]
    core = matching._partition_core

    def counted(cells, *args):
        visits[0] += len(cells)
        return core(cells, *args)

    monkeypatch.setattr(matching, "_partition_core", counted)
    for level in (2, 3, 4, 5):
        mesh = helpers.sphere_mesh(level)
        S = mm.mesh_complex(mesh)
        f = mm.preset_abs_xy(mesh)
        visits[0] = 0
        mm.partition(S, f, mm.lex_indexing(f))
        bound = sum(len(w) for w in S.verts if w is not None)
        assert 0 < visits[0] <= bound, (level, len(S), visits[0], bound)


def test_criterion_7_indexing_validity():
    rng = random.Random(7)
    checked = 0
    for trial in range(1000):
        if trial % 20 == 19:
            n = rng.randint(61, 200) if trial % 40 == 19 else \
                rng.randint(201, 500)
        else:
            n = rng.randint(1, 60)
        k = rng.randint(1, 4)
        levels = rng.randint(1, 4)
        f = mm.MeasuringFunction(
            [tuple(float(rng.randint(0, levels)) for _ in range(k))
             for _ in range(n)])
        assert mm.validate_indexing(f, mm.lex_indexing(f))
        assert mm.validate_indexing(f, mm.topo_sort_kahn(mm.build_dag(f)))
        checked += 1
    assert checked == 1000


def test_criterion_8_max_index_laws():
    for S, f in _all_test_complexes():
        index = mm.lex_indexing(f)
        for variant in ("strict", "weak"):
            P = mm.partition(S, f, index, variant)
            helpers.assert_max_index_laws(S, index, P)


def test_criterion_9_local_pairs_reach_the_field_floor():
    # totals over the corpus, both variants: cells in, kept by the
    # matching alone, and left after the pass (the floor over a field);
    # the pass alone, with no matching first, leaves the same total
    totals = {"strict": (2075, 1259, 483), "weak": (2075, 941, 483)}

    def reduce_locally(C, grades, least):
        mm.cancel_local_pairs(C, grades)
        assert mm.cancel_local_pairs(C, grades) == []
        if ring_name == "z":
            # only +-1 pivots qualify over Z: the floor over Q bounds
            # the count, and no optimality is claimed
            assert len(C) >= least
        else:
            assert len(C) == least
        return len(C)

    for ring_name in ("z2", "q", "z5", "z"):
        cases = [(_corpus_complex(seed, ring_name), _corpus_grades(seed))
                 for seed in CORPUS_SEEDS]
        cases.extend(_worked_examples(ring_name))
        floors = []
        alone = 0
        for S, f in cases:
            grades = mm.entry_grades(S, f)
            floors.append(helpers.field_floor(
                S, grades, mm.RATIONALS if ring_name == "z" else S.ring))
            alone += reduce_locally(S.copy(), grades, floors[-1])
        assert alone == 483, ring_name
        for variant, expected in totals.items():
            cells = kept = left = 0
            for (S, f), least in zip(cases, floors):
                grades = mm.entry_grades(S, f)
                P = mm.partition(S, f, mm.lex_indexing(f), variant)
                result = mm.reduce_all(S.copy(), P, grades=grades)
                C = result.complex
                matched = len(C)
                assert matched >= least
                cells += len(S)
                kept += matched
                left += reduce_locally(C, result.grades, least)
            assert (cells, kept, left) == expected, (ring_name, variant)

import gc
import random
import time
import tracemalloc

import pytest

import multimorse as mm
from multimorse import reduction
from multimorse.complexes import ComplexError
from multimorse.reduction import ReductionError

import helpers


def _pipeline(S, values):
    f = helpers.grades_of(values)
    index = mm.lex_indexing(f)
    P = mm.partition(S, f, index)
    grades = mm.entry_grades(S, f)
    return f, index, P, grades


def test_reduce_single_edge():
    S = helpers.single_edge(mm.INTEGERS)
    grades = mm.entry_grades(S, helpers.grades_of(helpers.EDGE_GRADES))
    step = mm.reduce_pair(S, 1, 2, grades)
    assert S.cells() == [0]
    assert dict(S.boundary(0)) == {}
    assert grades == {0: (0.0, 0.0)}
    assert step.pivot == 1
    assert step.tau_faces == {0: -1}
    assert step.sigma_cofaces == {}
    # projection sends the removed vertex to the survivor, plus sign
    pi = helpers.projection_map(step, S.ring)
    assert pi.image_of(1) == {0: 1}
    assert pi.image_of(2) == {}
    assert pi.image_of(0) == {0: 1}


def test_full_triangle_trace_over_z():
    S = helpers.full_triangle(mm.INTEGERS)
    f, index, P, grades = _pipeline(S, helpers.FULL_TRIANGLE_GRADES)
    assert list(P.matched.items()) == [(1, 3), (2, 4), (5, 6)]
    W = S.copy()

    mm.reduce_pair(W, 1, 3, grades)
    # the only rewritten entry: the (1,2) edge gains the face p0
    assert dict(W.boundary(5)) == {0: -1, 2: 1}
    assert dict(W.boundary(6)) == {4: -1, 5: 1}
    W.validate()

    mm.reduce_pair(W, 2, 4, grades)
    # correction cancels the p0 coefficient exactly
    assert dict(W.boundary(5)) == {}
    assert dict(W.boundary(6)) == {5: 1}
    W.validate()

    mm.reduce_pair(W, 5, 6, grades)
    assert W.cells() == [0]
    assert grades == {0: (0.0, 0.0)}
    W.validate()


def test_incidence_of_surviving_pairs_is_preserved():
    # after reducing one matched pair, every still-matched pair keeps its
    # original incidence coefficient
    for ring in (mm.GF2, mm.RATIONALS, mm.INTEGERS):
        for seed in range(4):
            S = helpers.random_complex(seed, ring=ring)
            f = helpers.random_grades(seed + 7, 12)
            _, _, P, grades = _pipeline(S, f.grades)
            pivots = {(s, t): S.incidence(t, s) for s, t in P.matched.items()}
            W = S.copy()
            remaining = dict(P.matched)
            for s, t in P.matched.items():
                mm.reduce_pair(W, s, t, grades)
                del remaining[s]
                for rs, rt in remaining.items():
                    assert W.incidence(rt, rs) == pivots[(rs, rt)]
                W.validate()


def _check_step_identities(pre, post, step):
    helpers.assert_step_algebra(pre, post, step)
    pi = helpers.projection_map(step, pre.ring)
    iota = helpers.inclusion_map(step, pre.ring)
    # both chain maps commute with the boundaries
    for g in pre.cells():
        assert helpers.boundary_of_chain(post, pi.image_of(g)) \
            == pi.apply(dict(pre.boundary(g)))
    for g in post.cells():
        assert helpers.boundary_of_chain(pre, iota.image_of(g)) \
            == iota.apply(dict(post.boundary(g)))


def test_step_chain_maps_identities():
    for ring in (mm.GF2, mm.RATIONALS, mm.INTEGERS):
        for seed in (0, 3, 5):
            S = helpers.random_complex(seed, ring=ring)
            f = helpers.random_grades(seed + 21, 12)
            _, _, P, grades = _pipeline(S, f.grades)
            W = S.copy()
            for s, t in P.matched.items():
                pre = W.copy()
                step = mm.reduce_pair(W, s, t, grades)
                _check_step_identities(pre, W, step)


def test_reduce_all_reaches_critical_cells():
    S = helpers.full_triangle()
    f, index, P, grades = _pipeline(S, helpers.FULL_TRIANGLE_GRADES)
    result = mm.reduce_all(S.copy(), P, grades=dict(grades))
    assert result.complex.cells() == sorted(P.critical)
    assert result.grades == {0: (0.0, 0.0)}
    # input untouched
    assert len(S) == 7 and grades[6] == (1.0, 1.0)


def test_reduce_all_works_in_place():
    S = helpers.full_triangle()
    f, index, P, grades = _pipeline(S, helpers.FULL_TRIANGLE_GRADES)
    result = mm.reduce_all(S, P, grades=grades)
    assert result.complex is S and result.grades is grades
    assert S.cells() == sorted(P.critical) == [0]
    # the survivors keep their vertex tuples, the removed cells lose them
    assert {c: w for c, w in enumerate(S.verts) if w is not None} == \
        {0: (0,)}
    assert S.cell_with_verts((0,)) == 0
    with pytest.raises(ComplexError, match=r"no simplex \(0, 1\)"):
        S.cell_with_verts((0, 1))


def _graded_complexes(ring):
    mesh = helpers.sphere_mesh(3)
    yield mm.mesh_complex(mesh, ring), mm.preset_abs_xy(mesh)
    for seed in range(4):
        yield (helpers.random_complex(seed, ring=ring),
               helpers.random_grades(seed + 3, 12))


def test_survivors_keep_their_entry_grades():
    # `reduce` grades only the survivors, after reduce_all: a survivor
    # keeps its vertex tuple, and a reduction never changes its grade
    removed = 0
    for ring in (mm.GF2, mm.INTEGERS):
        for variant in ("strict", "weak"):
            for S, f in _graded_complexes(ring):
                P = mm.partition(S, f, mm.lex_indexing(f), variant)
                R = mm.reduce_all(S, P, grades=mm.entry_grades(S, f))
                assert mm.entry_grades(R.complex, f) == R.grades
                removed += 2 * len(P.matched)
    assert removed > 0


def test_reduce_all_allocates_no_copy_of_its_input():
    # the peak that reduce_all adds over its input, against what the
    # build allocates for that input; a copy of the complex adds 83 %.
    # gc.collect() empties the free lists first, as helpers.traced does,
    # so that blocks freed by earlier tests do not hide allocations
    mesh = helpers.sphere_mesh(4)
    f = mm.preset_abs_xy(mesh)
    gc.collect()
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        S = mm.mesh_complex(mesh)
        built = tracemalloc.get_traced_memory()[0] - start
        P = mm.partition(S, f, mm.lex_indexing(f))
        grades = mm.entry_grades(S, f)
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        mm.reduce_all(S, P, grades=grades)
        added = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert added < 0.05 * built, (added, built)


def _boundary_table(C):
    return {c: dict(C.boundary(c)) for c in C.cells()}


def test_reduce_all_orders_agree_on_cells():
    # the matching is acyclic, so removing its pairs highest dimension
    # first, or in reverse, reaches the complex reduce_all reaches
    for ring in (mm.GF2, mm.INTEGERS):
        for seed in range(5):
            S = helpers.random_complex(seed, ring=ring)
            f = helpers.random_grades(seed + 31, 12)
            _, _, P, grades = _pipeline(S, f.grades)
            a = mm.reduce_all(S.copy(), P, grades=dict(grades))
            a.complex.validate()
            dim_desc = sorted(P.matched.items(), key=lambda p: -S.dim(p[0]))
            for pairs in (dim_desc, list(P.matched.items())[::-1]):
                W, g = S.copy(), dict(grades)
                for sigma, tau in pairs:
                    mm.reduce_pair(W, sigma, tau, g)
                assert W.cells() == a.complex.cells()
                assert _boundary_table(W) == _boundary_table(a.complex)
                assert g == a.grades


def test_reduce_all_empty_matching_is_identity():
    S = helpers.path_two_edges()
    f, index, P, grades = _pipeline(S, helpers.PATH_GRADES)
    result = mm.reduce_all(S.copy(), P, grades=dict(grades), with_maps=True)
    assert result.complex.cells() == S.cells()
    for c in S.cells():
        assert result.maps.projection[c] == {c: S.ring.one}
        assert result.maps.inclusion[c] == {c: S.ring.one}
    assert result.maps.homotopy == {}


def test_composed_maps_identities_and_supports():
    for ring in (mm.GF2, mm.RATIONALS, mm.INTEGERS):
        for seed in (1, 4, 6):
            S = helpers.random_complex(seed, ring=ring)
            f = helpers.random_grades(seed + 11, 12)
            _, _, P, grades0 = _pipeline(S, f.grades)
            result = mm.reduce_all(S.copy(), P, grades=dict(grades0),
                                   with_maps=True)
            C = result.complex
            proj = helpers.ChainMap(ring, result.maps.projection)
            incl = helpers.ChainMap(ring, result.maps.inclusion)
            homo = helpers.ChainMap(ring, result.maps.homotopy)
            for g in C.cells():
                assert proj.apply(incl.image_of(g)) == {g: ring.one}
            grades = mm.entry_grades(S, f)
            for g in S.cells():
                defect = helpers.chain_sub(
                    ring, {g: ring.one}, incl.apply(proj.image_of(g)))
                dD = helpers.boundary_of_chain(S, homo.image_of(g))
                Dd = homo.apply(dict(S.boundary(g)))
                for k, v in Dd.items():
                    nv = ring.add(dD.get(k, ring.zero), v)
                    if nv == ring.zero:
                        dD.pop(k, None)
                    else:
                        dD[k] = nv
                assert defect == dD
                # filtration compatibility by support inspection
                for x in proj.image_of(g):
                    assert mm.leq(grades[x], grades[g])
                for x in homo.image_of(g):
                    assert mm.leq(grades[x], grades[g])
            for g in C.cells():
                for x in incl.image_of(g):
                    assert mm.leq(grades[x], grades[g])


def _replayed_steps(S, P):
    """The step of every pair, replayed with reduce_pair on a copy of S
    in the pair order reduce_all uses."""
    W = S.copy()
    return [mm.reduce_pair(W, sigma, tau) for sigma, tau in P.matched.items()]


def _composed_step_by_step(S, steps):
    """Reference composites: fold the helpers' per-step projection_map,
    inclusion_map and homotopy_map in one step at a time, with
    P' = pi P, I' = I iota and H' = H + I D P."""
    ring = S.ring
    proj = {c: {c: ring.one} for c in S.cells()}
    incl = {c: {c: ring.one} for c in S.cells()}
    homo = {}
    for step in steps:
        pi = helpers.projection_map(step, ring)
        iota = helpers.inclusion_map(step, ring)
        D = helpers.homotopy_map(step, ring)
        before = helpers.ChainMap(ring, incl)
        for g, col in proj.items():
            h = helpers.chain_add(ring, homo.get(g, {}),
                                  before.apply(D.apply(col)))
            if h:
                homo[g] = h
            else:
                homo.pop(g, None)
        proj = {g: pi.apply(col) for g, col in proj.items()}
        incl = {g: before.apply(iota.image_of(g)) for g in incl
                if g not in (step.sigma, step.tau)}
    return proj, incl, homo


def test_composed_maps_equal_step_by_step_composition():
    rings = (mm.GF2, mm.RATIONALS, mm.INTEGERS, mm.PrimeField(5))
    for ring in rings:
        for seed in range(3):
            S = helpers.random_complex(seed, n_top=10, ring=ring)
            for k in (1, 2, 3):
                f = helpers.random_grades(seed * 5 + k, 12, k=k)
                index = mm.lex_indexing(f)
                grades = mm.entry_grades(S, f)
                for variant in ("strict", "weak"):
                    P = mm.partition(S, f, index, variant)
                    result = mm.reduce_all(S.copy(), P, grades=dict(grades),
                                           with_maps=True)
                    proj, incl, homo = _composed_step_by_step(
                        S, _replayed_steps(S, P))
                    assert result.maps.projection == proj
                    assert result.maps.inclusion == incl
                    assert result.maps.homotopy == homo


def test_maps_need_the_matching_order():
    # path 0-1-2, edges 3 = (0,1) and 4 = (1,2): reducing (0, 3) first
    # removes 3 while its face 1 still waits for (1, 4)
    S = helpers.path_two_edges(mm.INTEGERS)
    out_of_order = mm.MatchPartition({0: 3, 1: 4}, {2})
    gradient = mm.MatchPartition({1: 4, 0: 3}, {2})
    with pytest.raises(ReductionError, match="a face of 3 is in a later pair"):
        mm.reduce_all(S.copy(), out_of_order, with_maps=True)
    plain = mm.reduce_all(S.copy(), out_of_order).complex
    result = mm.reduce_all(S.copy(), gradient, with_maps=True)
    assert plain.cells() == result.complex.cells() == [2]
    assert _boundary_table(plain) == _boundary_table(result.complex)
    proj, incl, homo = _composed_step_by_step(S, _replayed_steps(S, gradient))
    assert result.maps.projection == proj
    assert result.maps.inclusion == incl
    assert result.maps.homotopy == homo


def test_composed_maps_cost_within_factor_of_plain_reduction():
    # The map output grows faster than the cell count (gradient paths
    # lengthen with the mesh), so the gate is a factor over plain
    # reduction on one mesh, not a line in cells.
    mesh = helpers.sphere_mesh(5)
    S = mm.mesh_complex(mesh)
    f = mm.preset_abs_xy(mesh)
    P = mm.partition(S, f, mm.lex_indexing(f))
    grades = mm.entry_grades(S, f)

    def best_time(with_maps):
        best = float("inf")
        for _ in range(3):
            C, g = S.copy(), dict(grades)
            t0 = time.perf_counter()
            mm.reduce_all(C, P, grades=g, with_maps=with_maps)
            best = min(best, time.perf_counter() - t0)
        return best

    plain, mapped = best_time(False), best_time(True)
    assert mapped <= 10 * plain, (mapped, plain)


def _cone_over_cycle(n):
    """The cone over an n-vertex cycle, its apex n graded above every
    cycle vertex, with its matching. Reducing it removes the apex's n
    cofaces one at a time and zeroes entries of the apex's coface row."""
    S = mm.build_simplicial(n + 1, [(i, (i + 1) % n, n) for i in range(n)])
    f = helpers.grades_of([(i,) for i in range(n)] + [(n,)])
    return S, mm.partition(S, f, mm.lex_indexing(f))


def test_reduce_all_cost_is_linear_on_a_cone():
    # a removed or zeroed entry left in a long coface row costs nothing
    # later; taking each out of the apex's row made this quadratic
    def best_time(n):
        S, P = _cone_over_cycle(n)
        best = float("inf")
        for _ in range(3):
            C = S.copy()
            t0 = time.perf_counter()
            mm.reduce_all(C, P)
            best = min(best, time.perf_counter() - t0)
        return best

    small, large = best_time(2000), best_time(20000)
    assert large <= 30 * small, (large, small)


def test_reduce_all_reads_linear_coface_rows_on_a_cone(monkeypatch):
    # the deterministic companion of the timed gate above: the coface
    # row entries that coboundary and remove_cell walk in reduce_all
    # stay within a constant per cycle vertex; a walk of the apex's
    # n-entry row on each pair would read about n**2
    walked = 0

    def counted(method):
        def wrapper(S, c):
            nonlocal walked
            walked += len(S._cofaces[c])
            return method(S, c)
        return wrapper

    for name in ("coboundary", "remove_cell"):
        monkeypatch.setattr(mm.SComplex, name,
                            counted(getattr(mm.SComplex, name)))
    for n in (2000, 20000):
        S, P = _cone_over_cycle(n)
        walked = 0
        mm.reduce_all(S, P)
        assert walked <= 14 * n, (n, walked)


def test_any_pair_order_keeps_the_coface_rows():
    # Pairs reduced out of matching order can zero an entry and make it
    # again, which lists its coface twice. Each coboundary must still be
    # what a dict from coface to coefficient, rewritten the same way,
    # holds: every coface once, where its entry was last made.
    rng = random.Random(1)
    listed_twice = 0
    for seed in range(100):
        S = helpers.random_complex(seed, 8, n_top=8,
                                   ring=(mm.GF2, mm.INTEGERS)[seed % 2])
        model = {c: dict(S.coboundary(c)) for c in S.cells()}
        for _ in range(8):
            pairs = [(t, s) for s in S.cells() for t, v in S.boundary(s)
                     if S.ring.is_unit(v)]
            if not pairs:
                break
            sigma, tau = rng.choice(pairs)
            step = mm.reduce_pair(S, sigma, tau)
            del model[sigma], model[tau]
            for row in model.values():
                row.pop(sigma, None)
                row.pop(tau, None)
            for eta in step.sigma_cofaces:
                for xi in step.tau_faces:
                    value = S.incidence(eta, xi)
                    if value == S.ring.zero:
                        model[xi].pop(eta, None)
                    else:
                        model[xi][eta] = value
            for c in S.cells():
                assert (list(S.coboundary(c).items())
                        == list(model[c].items()))
            S.validate()
        listed_twice += sum(len(set(S._cofaces[c])) < len(S._cofaces[c])
                            for c in S.cells())
    assert listed_twice > 0     # the corpus reaches the case


def test_matching_stays_acyclic_during_reduction():
    for seed in (0, 2):
        S = helpers.random_complex(seed)
        f = helpers.random_grades(seed + 61, 12)
        _, _, P, grades = _pipeline(S, f.grades)
        W = S.copy()
        remaining = dict(P.matched)
        for s, t in list(P.matched.items())[:50]:
            mm.reduce_pair(W, s, t, grades)
            del remaining[s]
            assert mm.is_acyclic(mm.modified_hasse(W, remaining))


def _count_reductions(monkeypatch):
    """Wrap reduce_pair: the pairs it reduces, and the entries it
    rewrites, |faces of tau but sigma| * |cofaces of sigma but tau| per
    pair."""
    calls, rewritten = [], [0]
    real = reduction.reduce_pair

    def counting(*args):
        step = real(*args)
        calls.append(args[1:3])
        rewritten[0] += len(step.tau_faces) * len(step.sigma_cofaces)
        return step

    monkeypatch.setattr(reduction, "reduce_pair", counting)
    return calls, rewritten


def test_local_pairs_count_their_reductions(monkeypatch):
    # a deterministic companion to the pass's cost: the reduce_pair calls
    # it makes on rotated L=4 over Z/2 after the matching, counted by
    # wrapping
    mesh = helpers.rotated_sphere_mesh(4, 11)
    S = mm.mesh_complex(mesh)
    f = mm.preset_abs_xy(mesh)
    C = mm.reduce_all(S, mm.partition(S, f, mm.lex_indexing(f))).complex
    grades = mm.entry_grades(C, f)
    calls, _ = _count_reductions(monkeypatch)
    pairs = mm.cancel_local_pairs(C, grades)
    assert len(calls) == len(pairs) == 1828
    assert calls == pairs
    assert len(C) == 4322 - 2 * 1828
    assert sorted(grades) == C.cells()
    C.validate()
    # a further sweep reduces nothing
    assert mm.cancel_local_pairs(C, grades) == []
    assert len(calls) == 1828


def test_local_pairs_alone_count_their_reductions(monkeypatch):
    # the pass alone, with no matching first, on the same input: more
    # pairs, to the same 666 cells, and the entries they rewrite
    mesh = helpers.rotated_sphere_mesh(4, 11)
    S = mm.mesh_complex(mesh)
    f = mm.preset_abs_xy(mesh)
    grades = mm.entry_grades(S, f)
    calls, rewritten = _count_reductions(monkeypatch)
    pairs = mm.cancel_local_pairs(S, grades)
    assert len(calls) == len(pairs) == 2740
    assert calls == pairs
    assert rewritten == [9903]
    assert len(S) == 6146 - 2 * 2740 == 666
    assert sorted(grades) == S.cells()
    S.validate()
    assert mm.cancel_local_pairs(S, grades) == []


def test_local_pairs_skip_non_units_over_z():
    # the boundary 2 of a 1-cell on a 0-cell of the same grade is no
    # unit over Z, so nothing is cancelled; over Q it is
    for ring, left in ((mm.INTEGERS, [0, 1]), (mm.RATIONALS, [])):
        S = mm.SComplex(ring)
        S.add_cell(0)
        S.add_cell(1)
        S.set_incidence(1, 0, 2)
        grades = {0: (0.0,), 1: (0.0,)}
        pairs = mm.cancel_local_pairs(S, grades)
        assert S.cells() == left
        assert pairs == ([] if left else [(0, 1)])


def test_reduce_pair_errors():
    S = helpers.full_triangle()
    with pytest.raises(ReductionError, match="6 is not a primary coface of 0"):
        mm.reduce_pair(S, 0, 6)
    with pytest.raises(ReductionError, match="99 is not a primary coface"):
        mm.reduce_pair(S, 0, 99)
    with pytest.raises(mm.ComplexError, match="no cell 99"):
        mm.reduce_pair(S, 99, 6)
    assert len(S) == 7
    Z = mm.SComplex(mm.INTEGERS)
    v = Z.add_cell(0)
    e = Z.add_cell(1)
    Z.set_incidence(e, v, 2)
    with pytest.raises(ReductionError, match="incidence 2 .* not a unit"):
        mm.reduce_pair(Z, v, e)
    assert dict(Z.boundary(e)) == {v: 2}


def test_zero_correction_keeps_restriction():
    # when the removed lower cell has no other coface, the surviving
    # coefficients are simply the old ones restricted
    S = helpers.path_two_edges(mm.INTEGERS)
    before = {(s, t): v for s in S.cells() for t, v in S.boundary(s)}
    mm.reduce_pair(S, 0, 3)
    for s in S.cells():
        for t, v in S.boundary(s):
            assert v == before[(s, t)]

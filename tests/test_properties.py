"""Property tests over random complexes and grades: ties, k from 1 to
4, and the rings z2, q, z and z5. They cover the rank oracle, the
matching against its per-vertex reference, the incidence tables of a
reduced complex, the local-pair pass against the floor over a field,
and the reduced-complex file format."""

import pytest
from hypothesis import assume, given, settings, strategies as st

import multimorse as mm
from multimorse.oracle import OracleError, _thin

import helpers

RINGS = [mm.GF2, mm.RATIONALS, mm.INTEGERS, mm.get_ring("z5")]
N_VERTICES = 10


@st.composite
def graded_complexes(draw, rings=RINGS):
    ring = draw(st.sampled_from(rings))
    S = helpers.random_complex(draw(st.integers(0, 10 ** 6)), N_VERTICES,
                               n_top=8, ring=ring)
    k = draw(st.integers(1, 4))
    level = st.integers(0, 2).map(float)
    f = mm.MeasuringFunction(draw(st.lists(
        st.tuples(*[level] * k), min_size=N_VERTICES, max_size=N_VERTICES)))
    return S, f, draw(st.sampled_from(["strict", "weak"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(graded_complexes(), st.data())
def test_oracle_properties(case, data):
    S, f, variant = case
    grades = mm.entry_grades(S, f)
    red = mm.reduce_all(S.copy(),
                        mm.partition(S, f, mm.lex_indexing(f), variant),
                        grades=dict(grades))
    grid = _thin(mm.critical_grades(grades), 6)
    # the table agrees with the reference, on the input and on its
    # reduction
    for C, g in ((S, grades), (red.complex, red.grades)):
        assert mm.rank_table(C, g, grid=grid) == \
            helpers.reference_rank_table(C, g, grid=grid)
    assert mm.verify_equivalence(S, grades, red.complex, red.grades,
                                 max_grades=6).ok
    # a cell lowered below one of its faces is refused, whatever the grid
    cells = [c for c in S.cells() if S.dim(c) > 0]
    assume(cells)
    c = data.draw(st.sampled_from(cells))
    t = data.draw(st.sampled_from(sorted(t for t, _ in S.boundary(c))))
    i = data.draw(st.integers(0, f.k - 1))
    lowered = dict(grades)
    lowered[c] = tuple(x - 1.0 if j == i else x
                       for j, x in enumerate(grades[t]))
    with pytest.raises(OracleError, match=f"of cell {c} "):
        mm.rank_table(S, lowered, grid=grid)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(graded_complexes())
def test_partition_properties(case):
    S, f, _ = case
    for index in (mm.lex_indexing(f), mm.topo_sort_kahn(mm.build_dag(f))):
        for variant in ("strict", "weak"):
            P = mm.partition(S, f, index, variant)
            matched, critical = helpers.reference_partition(
                S, f, index, variant)
            assert list(P.matched.items()) == list(matched.items())
            assert P.critical == critical
            helpers.assert_matching_invariants(S, f, index, P)
            # the maps' closed forms hold in the matching's order
            mm.reduce_all(S.copy(), P, with_maps=True)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(graded_complexes())
def test_reduced_complex_tables(case):
    S, f, variant = case
    C = mm.reduce_all(S.copy(),
                      mm.partition(S, f, mm.lex_indexing(f), variant)).complex
    C.validate()
    # every coboundary is the transpose of the face rows, no id twice
    transpose = {c: {} for c in C.cells()}
    for s in C.cells():
        for t, v in C.boundary(s):
            transpose[t][s] = v
    for c in C.cells():
        ids = list(C.coboundary(c))
        assert len(set(ids)) == len(ids)
        assert dict(C.coboundary(c)) == transpose[c]
    # the copy lists exactly the cofaces, in the same order
    D = C.copy()
    D.validate()
    for c in C.cells():
        assert D._cofaces[c] == list(C.coboundary(c))


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(graded_complexes(rings=[mm.GF2, mm.RATIONALS]))
def test_local_pairs_reach_the_field_floor(case):
    # over a field the pass alone, with no matching first, leaves the
    # fewest cells an equal-grade reduction can
    S, f, _ = case
    grades = mm.entry_grades(S, f)
    floor = helpers.field_floor(S, grades, S.ring)
    C = S.copy()
    mm.cancel_local_pairs(C, dict(grades))
    C.validate()
    assert len(C) == floor


@settings(derandomize=True, database=None, deadline=None, max_examples=50)
@given(graded_complexes(rings=[mm.GF2, mm.INTEGERS]))
def test_reduced_file_round_trip(tmp_path_factory, case):
    S, f, variant = case
    grades = mm.entry_grades(S, f)
    red = mm.reduce_all(S, mm.partition(S, f, mm.lex_indexing(f), variant),
                        grades=grades)
    C = red.complex
    path = str(tmp_path_factory.getbasetemp() / "round-trip.txt")
    mm.write_reduced(path, C, red.grades, f.k)
    back, back_grades = mm.read_reduced(path, C.ring)
    assert back.cells() == C.cells()
    assert back_grades == red.grades
    for c in C.cells():
        assert back.dim(c) == C.dim(c)
        assert dict(back.boundary(c)) == dict(C.boundary(c))

import math

import pytest

import multimorse as mm
from multimorse.filtration import GradeError

import helpers


def test_order_comparisons():
    assert mm.leq((0.0, 0.0), (1.0, 1.0))
    assert mm.le_neq((0.0, 0.0), (1.0, 1.0))
    # incomparable pair
    assert not mm.leq((1.0, 0.0), (0.0, 1.0))
    assert not mm.leq((0.0, 1.0), (1.0, 0.0))
    # comparable but not strictly dominated everywhere
    assert mm.leq((1.0, 0.0), (1.0, 1.0))
    assert mm.le_neq((1.0, 0.0), (1.0, 1.0))
    assert mm.leq((2.0, 3.0), (2.0, 3.0))
    assert not mm.le_neq((2.0, 3.0), (2.0, 3.0))


def test_arity_mismatch_rejected():
    with pytest.raises(GradeError):
        mm.leq((0.0,), (0.0, 1.0))
    # rank_table checks every grade's arity once, then compares the grid
    # pairs unchecked
    S = helpers.single_edge()
    grades = {c: (0.0, 0.0) for c in S.cells()}
    with pytest.raises(GradeError, match="arity mismatch 2 vs 3"):
        mm.rank_table(S, grades, grid=[(1.0, 1.0, 1.0)])
    with pytest.raises(GradeError, match="arity mismatch 3 vs 2"):
        mm.rank_table(S, grades, grid=[(1.0, 1.0), (1.0, 1.0, 1.0)])


def test_measuring_function_validation():
    f = mm.MeasuringFunction([(0, 0), (1, 2)])
    assert f.k == 2
    assert len(f) == 2
    assert f[1] == (1.0, 2.0)
    empty = mm.MeasuringFunction([])
    assert empty.k == 0 and len(empty) == 0
    with pytest.raises(GradeError, match="no vertex 0"):
        empty[0]
    with pytest.raises(GradeError, match="arity zero"):
        mm.MeasuringFunction([()])
    with pytest.raises(GradeError):
        mm.MeasuringFunction([(0.0, 0.0), (1.0,)])
    with pytest.raises(GradeError):
        mm.MeasuringFunction([(0.0, math.inf)])
    with pytest.raises(GradeError):
        mm.MeasuringFunction([(math.nan, 0.0)])
    with pytest.raises(GradeError):
        f[5]
    with pytest.raises(GradeError, match="no vertex -1"):
        f[-1]


def test_cell_grade():
    S = helpers.triangle_boundary()
    f = helpers.grades_of(helpers.TRIANGLE_BOUNDARY_GRADES)
    grades = mm.entry_grades(S, f)
    edge12 = S.cell_with_verts((1, 2))
    for c, want in ((0, (0.0, 0.0)), (1, (1.0, 0.0)), (edge12, (1.0, 1.0))):
        assert helpers.cell_grade(S, f, c) == grades[c] == want


def test_entry_grades_refuse_ungraded_vertices():
    f = mm.MeasuringFunction([(0, 0), (1, 2)])
    with pytest.raises(GradeError, match="no vertex -1"):
        mm.entry_grades(mm.complex_from_simplices([(-1, 0)]), f)
    with pytest.raises(GradeError, match="no vertex 2"):
        mm.entry_grades(helpers.full_triangle(), f)


def test_entry_grades_equal_cell_grade():
    for seed in range(4):
        S = helpers.random_complex(seed)
        f = helpers.random_grades(seed, 12, k=seed + 1, levels=3)
        assert mm.entry_grades(S, f) == {
            c: helpers.cell_grade(S, f, c) for c in S.cells()}


def test_entry_grades_monotone_and_membership():
    for seed in range(5):
        S = helpers.random_complex(seed)
        f = helpers.random_grades(seed, 12)
        grades = mm.entry_grades(S, f)
        assert helpers.check_face_monotone(S, grades)


def test_sublevel_closed_under_faces():
    for seed in range(5):
        S = helpers.random_complex(seed)
        f = helpers.random_grades(seed + 100, 12)
        grades = mm.entry_grades(S, f)
        for alpha in mm.critical_grades(grades):
            inside = helpers.sublevel_cells(grades, alpha)
            for c in inside:
                assert helpers.faces(S, c) <= inside


def test_critical_grades_sorted_dedup():
    S = helpers.triangle_boundary()
    f = helpers.grades_of(helpers.TRIANGLE_BOUNDARY_GRADES)
    grid = mm.critical_grades(mm.entry_grades(S, f))
    assert grid == [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
    assert mm.critical_grades([(1.0,), (0.0,), (1.0,)]) == [(0.0,), (1.0,)]


def test_check_face_monotone_detects_violation():
    S = helpers.single_edge()
    bad = {0: (1.0, 1.0), 1: (1.0, 1.0), 2: (0.0, 0.0)}
    assert not helpers.check_face_monotone(S, bad)


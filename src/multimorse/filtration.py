"""Vector-valued grades, the componentwise order, and sublevel filtrations.

A grade is a tuple of k floats. Grades are compared componentwise: leq is
<= in every coordinate, and le_neq is leq together with inequality
somewhere. A measuring function assigns a grade to every vertex; a cell
enters the filtration at the componentwise maximum of its vertex grades,
so sublevel sets are subcomplexes.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Tuple

from .complexes import SComplex

Grade = Tuple[float, ...]


class GradeError(ValueError):
    """Raised for grade arity mismatches and non-finite components."""


def _check_pair(a: Grade, b: Grade) -> None:
    if len(a) != len(b):
        raise GradeError(f"grades: arity mismatch {len(a)} vs {len(b)}")


def leq(a: Grade, b: Grade) -> bool:
    """a <= b in every component."""
    _check_pair(a, b)
    return all(x <= y for x, y in zip(a, b))


def le_neq(a: Grade, b: Grade) -> bool:
    """a <= b in every component and a != b."""
    return leq(a, b) and a != b


class MeasuringFunction:
    """Grades indexed by vertex number (vertex v -> grades[v])."""

    def __init__(self, grades: List[Grade]):
        # a function on no vertices has no arity: k is 0
        k = len(grades[0]) if grades else 0
        if grades and k == 0:
            raise GradeError("grades: arity zero")
        for v, g in enumerate(grades):
            if len(g) != k:
                raise GradeError(
                    f"grades: vertex {v} has arity {len(g)}, expected {k}")
            if not all(math.isfinite(x) for x in g):
                raise GradeError(f"grades: non-finite component at vertex {v}")
        self.grades = [tuple(float(x) for x in g) for g in grades]
        self.k = k

    def __len__(self) -> int:
        return len(self.grades)

    def __getitem__(self, v: int) -> Grade:
        self.check_vertices(v, v)
        return self.grades[v]

    def check_vertices(self, lo: int, hi: int) -> None:
        """Raise GradeError unless every vertex number from lo to hi has
        a grade; callers reading `grades` directly check this first."""
        if lo < 0:
            raise GradeError(f"grades: no vertex {lo}")
        if hi >= len(self.grades):
            raise GradeError(f"grades: no vertex {hi}")


def entry_grades(S: SComplex,
                 f: MeasuringFunction) -> Dict[int, Grade]:
    """Entry grade of every cell of S."""
    bare = S.cell_without_verts()
    if bare is not None:
        raise GradeError(f"grades: cell {bare} has no vertex tuple")
    grades = f.grades
    n = len(grades)
    out: Dict[int, Grade] = {}
    for c, w in enumerate(S.verts):
        if w is None:
            continue
        if w[0] < 0 or w[-1] >= n:
            f.check_vertices(w[0], w[-1])   # raises the GradeError
        if len(w) == 1:
            out[c] = grades[w[0]]
        else:
            out[c] = tuple(map(max, *[grades[u] for u in w]))
    return out


def critical_grades(grades: Dict[int, Grade] | Iterable[Grade]) -> List[Grade]:
    """Distinct entry grades, lexicographically sorted."""
    values = grades.values() if isinstance(grades, dict) else grades
    return sorted(set(values))


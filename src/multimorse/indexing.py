"""Vertex orderings compatible with the componentwise order.

An indexing is a bijection from vertices to 0..n-1 that increases along
the strict-but-unequal comparisons of the measuring function: whenever
f(u) <= f(w) componentwise with f(u) != f(w), vertex u gets the smaller
index. Two constructions are provided: a lexicographic sort (the default,
n log n) and Kahn's algorithm on the comparability digraph. Vertices of
one grade have the same predecessors and successors there, so the
digraph is kept as its d grade classes and never lists a vertex pair;
it and the validity check cost O(d^2 + n log n).
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Tuple

from .filtration import Grade, MeasuringFunction, le_neq


def _grade_classes(f: MeasuringFunction
                   ) -> Tuple[List[List[int]], List[List[int]]]:
    """Vertices grouped by grade, and for each class the classes whose
    grade is strictly greater. Classes are in lexicographic grade order
    and members ascend; since le_neq implies lexicographically smaller,
    only later classes need comparing."""
    by_grade: Dict[Grade, List[int]] = {}
    for v in range(len(f)):
        by_grade.setdefault(f[v], []).append(v)
    grades = sorted(by_grade)
    members = [by_grade[g] for g in grades]
    above = [[j for j in range(i + 1, len(grades)) if le_neq(g, grades[j])]
             for i, g in enumerate(grades)]
    return members, above


class ComparabilityDag:
    """Comparability digraph of a measuring function on its grade
    classes: an edge u -> w for every vertex u of members[i] and w of
    members[j] whenever j is in above[i]."""

    def __init__(self, members: List[List[int]], above: List[List[int]]):
        self.members = members
        self.above = above

    @property
    def edge_count(self) -> int:
        """Comparable vertex pairs, counted without listing them."""
        sizes = [len(cls) for cls in self.members]
        return sum(size * sum(sizes[j] for j in greater)
                   for size, greater in zip(sizes, self.above))


def build_dag(f: MeasuringFunction) -> ComparabilityDag:
    """Comparability digraph of f: an edge u -> w whenever f(u) <= f(w)
    componentwise and f(u) != f(w). O(d^2 + n log n) for d distinct
    grades; quadratic only in d when all grades differ."""
    return ComparabilityDag(*_grade_classes(f))


def topo_sort_kahn(dag: ComparabilityDag) -> List[int]:
    """Indices from a topological sort of dag, smallest vertex id first
    among the ready vertices. Returns index[vertex]. A class is released
    whole once every class below it is placed; a grade order has no
    cycle, so every vertex gets placed."""
    members, above = dag.members, dag.above
    waiting = [0] * len(members)    # classes below, not yet all placed
    for greater in above:
        for j in greater:
            waiting[j] += 1
    left = [len(cls) for cls in members]
    class_of = [0] * sum(left)
    for i, cls in enumerate(members):
        for v in cls:
            class_of[v] = i
    ready = [v for i, cls in enumerate(members) if not waiting[i] for v in cls]
    heapq.heapify(ready)
    index = [0] * len(class_of)
    placed = 0
    while ready:
        u = heapq.heappop(ready)
        index[u] = placed
        placed += 1
        i = class_of[u]
        left[i] -= 1
        if left[i]:
            continue
        for j in above[i]:
            waiting[j] -= 1
            if not waiting[j]:
                for w in members[j]:
                    heapq.heappush(ready, w)
    return index


def lex_indexing(f: MeasuringFunction) -> List[int]:
    """Indices from sorting vertices by grade lexicographically, vertex
    id breaking ties."""
    ranked = sorted(range(len(f)), key=lambda v: (f[v], v))
    index = [0] * len(f)
    for i, v in enumerate(ranked):
        index[v] = i
    return index


def validate_indexing(f: MeasuringFunction, index: List[int]) -> bool:
    """Check bijectivity onto 0..n-1 and compatibility with the order:
    f(u) <= f(w), f(u) != f(w) forces index[u] < index[w]. Compares the
    largest index of each grade class with the smallest of every strictly
    greater class: O(d^2 + n log n) for d distinct grades."""
    n = len(f)
    if len(index) != n or sorted(index) != list(range(n)):
        return False
    members, above = _grade_classes(f)
    low = [min(index[v] for v in cls) for cls in members]
    for cls, greater in zip(members, above):
        high = max(index[v] for v in cls)
        if any(high >= low[j] for j in greater):
            return False
    return True

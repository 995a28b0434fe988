"""Vertex orderings compatible with the componentwise order.

An indexing is a bijection from vertices to 0..n-1 that increases along
the strict-but-unequal comparisons of the measuring function: whenever
f(u) <= f(w) componentwise with f(u) != f(w), vertex u gets the smaller
index. Two constructions are provided: a lexicographic sort (the default,
n log n) and Kahn's algorithm on the comparability digraph (linear in
vertices plus comparable pairs, and reusable for any DAG). The digraph
and the validity check compare the d distinct grades pairwise rather than
the n vertices, so they cost O(d^2 + edges) and O(d^2 + n log n).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Tuple

from .filtration import Grade, MeasuringFunction, le_neq


class CycleError(ValueError):
    """Raised when a supposed DAG contains a directed cycle."""


@dataclass
class ComparabilityDag:
    """Successor lists of a digraph on nodes 0..n-1."""

    succ: List[List[int]]

    @property
    def n(self) -> int:
        return len(self.succ)

    @property
    def edge_count(self) -> int:
        return sum(len(s) for s in self.succ)


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


def build_dag(f: MeasuringFunction) -> ComparabilityDag:
    """Comparability digraph of f: an edge u -> w whenever f(u) <= f(w)
    componentwise and f(u) != f(w), successors in ascending order. All
    vertices of one grade share their successors, so the cost is
    O(d^2 + edges) for d distinct grades; quadratic when all differ."""
    succ: List[List[int]] = [[] for _ in range(len(f))]
    members, above = _grade_classes(f)
    for cls, greater in zip(members, above):
        targets = sorted(w for j in greater for w in members[j])
        for u in cls:
            succ[u] = list(targets)
    return ComparabilityDag(succ)


def topo_sort_kahn(dag: ComparabilityDag) -> List[int]:
    """Indices from a topological sort of dag, smallest node id first
    among the ready set. Returns index[node]; raises CycleError when the
    graph has a cycle."""
    n = dag.n
    indeg = [0] * n
    for u in range(n):
        for w in dag.succ[u]:
            indeg[w] += 1
    ready = [u for u in range(n) if indeg[u] == 0]
    heapq.heapify(ready)
    index = [-1] * n
    placed = 0
    while ready:
        u = heapq.heappop(ready)
        index[u] = placed
        placed += 1
        for w in dag.succ[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(ready, w)
    if placed != n:
        raise CycleError(f"indexing: digraph has a cycle ({n - placed} nodes unplaced)")
    return index


def lex_indexing(f: MeasuringFunction) -> List[int]:
    """Indices from sorting vertices by grade lexicographically, vertex
    id breaking ties."""
    order = sorted(range(len(f)), key=lambda v: (f[v], v))
    index = [0] * len(f)
    for i, v in enumerate(order):
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

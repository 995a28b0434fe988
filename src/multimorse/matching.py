"""Filtration-compatible acyclic matchings built from vertex lower links.

Cells are partitioned into lower matched cells (each paired with one of
its primary cofaces), upper matched cells, and critical cells. Every
cell of dimension >= 1 belongs to the lower star of at most one vertex,
its *apex*: the vertex of the cell that admits every other vertex of the
cell below it. Admission is a strict partial order on the vertices, so
the apex is unique when it exists and a linear scan finds it. One sweep
over the cells therefore records which cells each apex owns; a cell
without an apex stays critical. Each vertex v is then processed in
index order: the algorithm builds v's lower link from the cells v owns,
each minus v, recursively partitions it (swept the same way), matches
v itself with the cone over a distinguished minimal critical link
vertex, and transports the link's matching through the cone. A link
cell carries the id of the cell it was cut from, which is its cone, so
the transport is free. Vertices with an empty lower link end up
critical.

Two admission rules exist. The strict variant admits a vertex u below v
only when f(u) <= f(v) componentwise with f(u) != f(v). The weak variant
also admits equal-grade vertices, breaking the tie by the vertex
indexing (u admitted when index[u] < index[v]), which keeps the matching
a bijection and the reversed Hasse diagram acyclic.
"""

from __future__ import annotations

from operator import le
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .complexes import SComplex
from .filtration import MeasuringFunction


class MatchingError(ValueError):
    """Raised for invalid partition inputs or violated invariants."""


class MatchPartition:
    """Result of partition: matched maps each lower cell to its paired
    primary coface (in emission order), critical holds the rest."""

    def __init__(self, matched: Dict[int, int], critical: Set[int]):
        self.matched = matched
        self.critical = critical


Simplex = Tuple[int, ...]
Admission = Callable[[int, int], bool]


def _admission(grades: Sequence[Tuple[float, ...]],
               index: Sequence[int], variant: str) -> Admission:
    """admit(u, v): u may lie below v in v's lower link. The grades are
    read directly, so every vertex passed in must have been checked
    against the measuring function first."""
    if variant == "strict":
        def admit(u: int, v: int) -> bool:
            gu, gv = grades[u], grades[v]
            return gu != gv and all(map(le, gu, gv))
        return admit

    def admit(u: int, v: int) -> bool:
        gu, gv = grades[u], grades[v]
        if gu == gv:
            return index[u] < index[v]
        return all(map(le, gu, gv))
    return admit


def _apex(w: Simplex, admit: Admission) -> int | None:
    """The vertex of w that admits all its other vertices, or None."""
    top = w[0]
    for u in w[1:]:
        if admit(top, u):
            top = u
    for u in w:
        if u != top and not admit(u, top):
            return None
    return top


def _partition_core(cells: Dict[Simplex, int],
                    grades: Sequence[Tuple[float, ...]],
                    index: Sequence[int], admit: Admission
                    ) -> Tuple[List[Tuple[int, int]], List[int],
                               List[Tuple[int, int]]]:
    """Partition a face-closed set of vertex tuples, each mapped to the
    id its caller knows it by. Returns the matched pairs of ids in
    emission order, the critical ids of dimension >= 1, and the critical
    points as (vertex, id).

    One pass records the cells each apex owns; a vertex's lower link is
    built when the vertex comes up, in index order, and dropped after
    it. A link cell keeps the id of the cell it was cut from, which is
    its cone with the vertex, so the ids the recursion hands back need
    no translation. Cells without an apex are critical. The output does
    not depend on the order of `cells`."""
    points: Dict[int, int] = {}
    owned: Dict[int, List[Simplex]] = {}
    critical: List[int] = []
    for w, c in cells.items():
        if len(w) == 1:
            points[w[0]] = c
            continue
        top = _apex(w, admit)
        if top is None:
            critical.append(c)
        else:
            owned.setdefault(top, []).append(w)
    matched: List[Tuple[int, int]] = []
    lone: List[Tuple[int, int]] = []
    for v in sorted(points, key=index.__getitem__):
        mine = owned.pop(v, None)
        if mine is None:
            lone.append((v, points[v]))
            continue
        link = {tuple(u for u in w if u != v): cells[w] for w in mine}
        _match_vertex(points[v], link, grades, index, admit, matched,
                      critical)
    return matched, critical, lone


def _match_vertex(v_id: int, link: Dict[Simplex, int],
                  grades: Sequence[Tuple[float, ...]], index: Sequence[int],
                  admit: Admission, matched: List[Tuple[int, int]],
                  critical: List[int]) -> None:
    """Add what a vertex with a nonempty lower link contributes: its edge
    to the link's chosen critical vertex, then the link's other critical
    cells and the link's pairs, all given by the ids of their cones."""
    sub_matched, sub_critical, pool = _partition_core(
        link, grades, index, admit)
    if not pool:
        raise MatchingError(
            "matching: nonempty link produced no critical vertex")
    minimal = []
    for u, c in pool:
        gu = grades[u]
        if not any(w != u and grades[w] != gu and all(map(le, grades[w], gu))
                   for w, _ in pool):
            minimal.append((u, c))
    w0 = min(minimal, key=lambda p: index[p[0]])[1]
    matched.append((v_id, w0))
    critical.extend(c for _, c in pool if c != w0)
    critical.extend(sub_critical)
    matched.extend(sub_matched)


def partition(S: SComplex, f: MeasuringFunction,
              index: Sequence[int], variant: str = "strict"
              ) -> MatchPartition:
    """Partition the cells of S into matched pairs and critical cells.

    f grades the vertices, index must be a valid indexing for f (only
    cheap necessary conditions are re-checked here), and variant selects
    the strict or weak lower link.
    """
    if variant not in ("strict", "weak"):
        raise MatchingError(f"matching: unknown variant {variant!r}")
    bare = S.cell_without_verts()
    if bare is not None:
        raise MatchingError(f"matching: cell {bare} has no vertex tuple")
    vids = S.vertex_ids()
    seen: Set[int] = set()
    for v in vids:
        if not 0 <= v < len(index):
            raise MatchingError(f"matching: no index for vertex {v}")
        if index[v] in seen:
            raise MatchingError("matching: indexing is not injective")
        seen.add(index[v])
    if vids:
        f.check_vertices(vids[0], vids[-1])
    # the ids of cell_by_verts are the int objects the complex's tables
    # hold, so the result shares them rather than making one per cell
    pairs, critical, lone = _partition_core(
        S.cell_by_verts, f.grades, index,
        _admission(f.grades, index, variant))
    critical.extend(c for _, c in lone)
    return MatchPartition(dict(pairs), set(critical))


def max_index(S: SComplex, index: Sequence[int], c: int) -> int:
    """Largest vertex index occurring in cell c."""
    S.dim(c)    # a negative id would alias the end of verts
    return max(index[u] for u in S.verts[c])


def modified_hasse(S, matched: Dict[int, int]) -> Dict[int, List[int]]:
    """Face digraph of S with each matched pair's arrow reversed: cell ->
    primary face, except a lower cell points up at its match instead."""
    adj: Dict[int, List[int]] = {c: [] for c in S.cells()}
    for s in adj:
        for t, _ in sorted(S.boundary(s)):
            if matched.get(t) == s:
                adj[t].append(s)
            else:
                adj[s].append(t)
    return adj


def is_acyclic(adj: Dict[int, List[int]]) -> bool:
    """Kahn's algorithm on an adjacency dict; True when no cycle."""
    indeg = {u: 0 for u in adj}
    for targets in adj.values():
        for w in targets:
            indeg[w] += 1
    stack = [u for u, d in indeg.items() if d == 0]
    placed = 0
    while stack:
        u = stack.pop()
        placed += 1
        for w in adj[u]:
            indeg[w] -= 1
            if indeg[w] == 0:
                stack.append(w)
    return placed == len(adj)

"""Filtration-compatible acyclic matchings built from vertex lower links.

This is the lower-star matching of King, Knudson & Mramor, extended to
vector-valued grades. A cell enters the filtration at its entry grade,
the componentwise maximum of its vertex grades. Every cell of dimension
>= 1 belongs to the lower star of at most one vertex, its *apex*: the
vertex of the cell whose grade is the cell's entry grade. Under the
strict variant the apex must be the only vertex with that grade; under
the weak variant equal-grade vertices tie, and the tie goes to the one
of largest index. A cell whose vertex grades have no componentwise
maximum, or whose maximum is shared under the strict variant, has no
apex and stays critical.

One sweep over the cells records which cells each apex owns. Each
vertex v is then processed in index order: the algorithm builds v's
lower link from the cells v owns, each minus v, recursively partitions
it (swept the same way), matches v itself with the cone over a
distinguished minimal critical link vertex, and transports the link's
matching through the cone. A link cell carries the id of the cell it
was cut from, which is its cone, so the transport is free. A matched
pair shares its apex, so both cells enter at the apex's grade. The
critical cells are the cells no pair covers; among them are the
vertices with an empty lower link.
"""

from __future__ import annotations

from operator import le
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

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
Grades = Sequence[Tuple[float, ...]]
# cells by id: a dict, or a list indexed by id with None at the ids that
# hold no cell, as SComplex.verts is
Cells = Union[Dict[int, Simplex], List[Optional[Simplex]]]


def _apex(w: Simplex, grades: Grades, index: Sequence[int],
          weak: bool) -> int | None:
    """The vertex of w whose grade is w's entry grade, or None. Only the
    lexicographic maximum g of the grades can be their componentwise
    maximum. Two vertices of grade g leave no apex under strict; under
    weak the one of largest index is the apex. The grades are read
    directly, so every vertex must have been checked first."""
    g = max(map(grades.__getitem__, w))
    top = None
    for u in w:
        gu = grades[u]
        if gu == g:
            if top is None or weak and index[u] > index[top]:
                top = u
            elif not weak:
                return None
        elif not all(map(le, gu, g)):
            return None
    return top


def _partition_core(cells: Cells, grades: Grades, index: Sequence[int],
                    weak: bool
                    ) -> Tuple[List[Tuple[int, int]], List[Tuple[int, int]]]:
    """Partition a face-closed set of vertex tuples, given by the ids
    its caller knows them by. Returns the matched pairs of ids in
    emission order and the unpaired points as (vertex, id); every id no
    pair covers is critical.

    One pass records the ids of the cells each apex owns; a vertex's
    lower link is built when the vertex comes up, in index order, and
    dropped after it. A link cell keeps the id of the cell it was cut
    from, which is its cone with the vertex, so the ids the recursion
    hands back need no translation. The output does not depend on the
    order of `cells`."""
    points: Dict[int, int] = {}
    owned: Dict[int, List[int]] = {}
    items = enumerate(cells) if isinstance(cells, list) else cells.items()
    for c, w in items:
        if w is None:
            continue    # an id that holds no cell
        if len(w) == 1:
            points[w[0]] = c
            continue
        top = _apex(w, grades, index, weak)
        if top is not None:
            owned.setdefault(top, []).append(c)
    matched: List[Tuple[int, int]] = []
    lone: List[Tuple[int, int]] = []
    for v in sorted(points, key=index.__getitem__):
        mine = owned.pop(v, None)
        if mine is None:
            lone.append((v, points[v]))
            continue
        link = {c: tuple(u for u in cells[c] if u != v) for c in mine}
        _match_vertex(points[v], link, grades, index, weak, matched)
    return matched, lone


def _match_vertex(v_id: int, link: Dict[int, Simplex], grades: Grades,
                  index: Sequence[int], weak: bool,
                  matched: List[Tuple[int, int]]) -> None:
    """Add what a vertex with a nonempty lower link contributes: its edge
    to the link's chosen critical vertex, then the link's pairs, all
    given by the ids of their cones."""
    sub_matched, pool = _partition_core(link, grades, index, weak)
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
    pairs, _ = _partition_core(S.verts, f.grades, index, variant == "weak")
    paired = bytearray(len(S.verts))
    for low, up in pairs:
        paired[low] = paired[up] = 1
    return MatchPartition(dict(pairs), {
        c for c, w in enumerate(S.verts) if w is not None and not paired[c]})


def max_index(S: SComplex, index: Sequence[int], c: int) -> int:
    """Largest vertex index occurring in cell c."""
    S.dim(c)    # a negative id would alias the end of verts
    w = S.verts[c]
    if w is None:
        raise MatchingError(f"matching: cell {c} has no vertex tuple")
    return max(index[u] for u in w)


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

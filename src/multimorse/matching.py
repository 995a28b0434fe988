"""Filtration-compatible acyclic matchings built from vertex lower links.

Cells are partitioned into lower matched cells (each paired with one of
its primary cofaces), upper matched cells, and critical cells. The
partition is computed one vertex at a time: the cells containing a given
vertex v correspond to cones over v's lower link, so the algorithm
recursively partitions the link (a smaller simplicial complex on the
vertices below v), matches v itself with the cone over a distinguished
minimal critical link vertex, and transports the link's matching through
the cone. Vertices with an empty lower link, and any cell never touched
by a cone, end up critical.

Two link variants exist. The strict variant admits a vertex u into v's
link only when f(u) <= f(v) componentwise with f(u) != f(v). The weak
variant also admits equal-grade vertices; inside partition the tie is
broken by the vertex indexing (u admitted when index[u] < index[v]),
which keeps the matching a bijection and the reversed Hasse diagram
acyclic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Set, Tuple

from .complexes import SimplicialComplex, complex_from_simplices
from .filtration import MeasuringFunction, le_neq, leq


class MatchingError(ValueError):
    """Raised for invalid partition inputs or violated invariants."""


@dataclass
class LowerLink:
    """A lower link as its own simplicial complex, plus the map sending
    each link cell to the cone cell (link cell joined with the apex
    vertex) inside the parent complex."""

    complex: SimplicialComplex
    to_parent: Dict[int, int]


@dataclass
class MatchPartition:
    """Result of partition: matched maps each lower cell to its paired
    primary coface (in emission order), critical holds the rest."""

    matched: Dict[int, int]
    critical: Set[int]

    @property
    def lower(self) -> Set[int]:
        return set(self.matched)

    @property
    def upper(self) -> Set[int]:
        return set(self.matched.values())

    def pairs(self) -> List[Tuple[int, int]]:
        return list(self.matched.items())


def _admission(f: MeasuringFunction, index: Sequence[int] | None,
               variant: str) -> Callable[[int, int], bool]:
    if variant == "strict":
        return lambda u, v: le_neq(f[u], f[v])

    def admit(u: int, v: int) -> bool:
        gu, gv = f[u], f[v]
        if gu == gv:
            return index[u] < index[v]
        return leq(gu, gv)
    return admit


def _link_of(S: SimplicialComplex, vid: int, v_cell: int,
             admit: Callable[[int, int], bool]) -> LowerLink:
    member: List[Tuple[int, ...]] = []
    for rho in S.cofaces_closure(v_cell):
        w = tuple(u for u in S.verts[rho] if u != vid)
        if all(admit(u, vid) for u in w):
            member.append(w)
    # admitted simplices are closed under faces, so this closure adds nothing
    link = complex_from_simplices(member, S.ring) if member \
        else SimplicialComplex(S.ring)
    to_parent = {
        lc: S.cell_by_verts[tuple(sorted(w + (vid,)))]
        for lc, w in link.verts.items()
    }
    return LowerLink(link, to_parent)


def lower_link(S: SimplicialComplex, f: MeasuringFunction,
               v: int) -> LowerLink:
    """Strict lower link of vertex v: simplices joined to v all of whose
    vertices have grade componentwise <= f(v) and different from it."""
    v_cell = S.cell_with_verts((v,))
    return _link_of(S, v, v_cell, _admission(f, None, "strict"))


def _match_vertex(S: SimplicialComplex, f: MeasuringFunction,
                  index: Sequence[int], variant: str, v_cell: int,
                  matched: Dict[int, int], critical: Set[int]) -> None:
    """Add what one vertex contributes to the partition: the vertex
    itself when its link is empty, else its edge to the link's chosen
    critical vertex, then the link's pairs and other critical cells
    carried through the cone."""
    vid = S.verts[v_cell][0]
    link = _link_of(S, vid, v_cell, _admission(f, index, variant))
    if len(link.complex) == 0:
        critical.add(v_cell)
        return
    sub_matched, sub_critical = _partition_core(
        link.complex, f, index, variant)
    c0 = sorted(lc for lc in sub_critical if link.complex.dim(lc) == 0)
    if not c0:
        raise MatchingError(
            "matching: nonempty link produced no critical vertex")
    pool = [(lc, link.complex.verts[lc][0]) for lc in c0]
    minimal = [(lc, u) for lc, u in pool
               if not any(le_neq(f[w], f[u]) for _, w in pool if w != u)]
    w0_cell, _ = min(minimal, key=lambda item: index[item[1]])
    to_parent = link.to_parent
    matched[v_cell] = to_parent[w0_cell]
    for lc in sorted(sub_critical):
        if lc != w0_cell:
            critical.add(to_parent[lc])
    for low, up in sub_matched.items():
        matched[to_parent[low]] = to_parent[up]


def _partition_core(S: SimplicialComplex, f: MeasuringFunction,
                    index: Sequence[int], variant: str
                    ) -> Tuple[Dict[int, int], Set[int]]:
    zero = S.cells_of_dim(0)
    zero.sort(key=lambda c: index[S.verts[c][0]])
    matched: Dict[int, int] = {}
    critical: Set[int] = set()
    for v_cell in zero:
        _match_vertex(S, f, index, variant, v_cell, matched, critical)
    assigned = set(matched)
    assigned.update(matched.values())
    assigned.update(critical)
    for c in S.cells():
        if c not in assigned:
            critical.add(c)
    return matched, critical


def partition(S: SimplicialComplex, f: MeasuringFunction,
              index: Sequence[int], variant: str = "strict"
              ) -> MatchPartition:
    """Partition the cells of S into matched pairs and critical cells.

    f grades the vertices, index must be a valid indexing for f (only
    cheap necessary conditions are re-checked here), and variant selects
    the strict or weak lower link.
    """
    if not isinstance(S, SimplicialComplex):
        raise MatchingError("matching: complex is not simplicial")
    if variant not in ("strict", "weak"):
        raise MatchingError(f"matching: unknown variant {variant!r}")
    seen: Set[int] = set()
    for v in S.vertex_ids():
        if not 0 <= v < len(index):
            raise MatchingError(f"matching: no index for vertex {v}")
        if index[v] in seen:
            raise MatchingError("matching: indexing is not injective")
        seen.add(index[v])
    matched, critical = _partition_core(S, f, index, variant)
    return MatchPartition(matched, critical)


def max_index(S: SimplicialComplex, index: Sequence[int], c: int) -> int:
    """Largest vertex index occurring in cell c."""
    return max(index[u] for u in S.verts[c])


def modified_hasse(S, matched: Dict[int, int]) -> Dict[int, List[int]]:
    """Face digraph of S with each matched pair's arrow reversed: cell ->
    primary face, except a lower cell points up at its match instead."""
    adj: Dict[int, List[int]] = {c: [] for c in S.cells()}
    for s in adj:
        for t in sorted(S.primary_faces(s)):
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

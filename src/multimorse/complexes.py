"""Graded cell complexes with sparse incidence coefficients.

An SComplex stores a finite set of cells, each with a dimension, and the
incidence coefficient between a cell and each of its primary faces (cells
one dimension down). Coefficients live in a fixed ring and are kept in
adjacency dicts from both endpoints, so faces and cofaces of a cell are
both O(degree) lookups. A SimplicialComplex additionally remembers the
sorted vertex tuple of every cell and derives its coefficients from the
alternating-sign rule: dropping the i-th vertex contributes (-1)**i.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, Iterable, ItemsView, List, Sequence, Set, Tuple

from .rings import GF2, CoefficientRing


class ComplexError(ValueError):
    """Raised for malformed complexes: bad cell ids, dimension-rule
    violations, or a boundary that does not square to zero."""


class SComplex:
    """A finite cell complex with ring-valued incidence coefficients."""

    def __init__(self, ring: CoefficientRing = GF2):
        self.ring = ring
        self._dims: Dict[int, int] = {}
        # _faces[s][t] == _cofaces[t][s] == incidence of s with its face t
        self._faces: Dict[int, Dict[int, object]] = {}
        self._cofaces: Dict[int, Dict[int, object]] = {}
        self._next_id = 0

    # -- construction -------------------------------------------------

    def add_cell(self, dim: int, cell_id: int | None = None) -> int:
        if dim < 0:
            raise ComplexError(f"complex: negative dimension {dim}")
        if cell_id is None:
            cell_id = self._next_id
        if cell_id in self._dims:
            raise ComplexError(f"complex: cell id {cell_id} already in use")
        self._dims[cell_id] = dim
        self._faces[cell_id] = {}
        self._cofaces[cell_id] = {}
        self._next_id = max(self._next_id, cell_id + 1)
        return cell_id

    def set_incidence(self, s: int, t: int, value) -> None:
        """Set the coefficient between cell s and its primary face t.

        The value is first normalized into the ring (2 is zero over z2),
        and a zero value erases the entry. The dimension rule (nonzero
        coefficients only one dimension apart) is enforced here.
        """
        ds, dt = self.dim(s), self.dim(t)
        value = self.ring.from_int(value)
        if value == self.ring.zero:
            self._faces[s].pop(t, None)
            self._cofaces[t].pop(s, None)
            return
        if ds != dt + 1:
            raise ComplexError(
                f"complex: incidence between dim {ds} and dim {dt} cells")
        self._faces[s][t] = value
        self._cofaces[t][s] = value

    def remove_cell(self, c: int) -> None:
        """Delete a cell and every incidence entry that mentions it."""
        for t in self._faces.pop(c):
            del self._cofaces[t][c]
        for s in self._cofaces.pop(c):
            del self._faces[s][c]
        del self._dims[c]

    # -- queries ------------------------------------------------------

    def __contains__(self, c: int) -> bool:
        return c in self._dims

    def __len__(self) -> int:
        return len(self._dims)

    def dim(self, c: int) -> int:
        try:
            return self._dims[c]
        except KeyError:
            raise ComplexError(f"complex: no cell {c}") from None

    @property
    def max_dim(self) -> int:
        """Largest cell dimension, or -1 for an empty complex."""
        return max(self._dims.values(), default=-1)

    def cells(self) -> List[int]:
        return sorted(self._dims)

    def cells_of_dim(self, q: int) -> List[int]:
        return sorted(c for c, d in self._dims.items() if d == q)

    def incidence(self, s: int, t: int):
        if s not in self._dims or t not in self._dims:
            raise ComplexError(f"complex: no cell {s if s not in self._dims else t}")
        return self._faces[s].get(t, self.ring.zero)

    def boundary(self, c: int) -> ItemsView[int, object]:
        """Primary faces of c with their incidence coefficients, as a
        read-only view that follows later edits of the complex."""
        try:
            return self._faces[c].items()
        except KeyError:
            raise ComplexError(f"complex: no cell {c}") from None

    def coboundary(self, c: int) -> ItemsView[int, object]:
        """Primary cofaces of c with their incidence coefficients, as a
        read-only view that follows later edits of the complex."""
        try:
            return self._cofaces[c].items()
        except KeyError:
            raise ComplexError(f"complex: no cell {c}") from None

    def primary_faces(self, c: int) -> Set[int]:
        if c not in self._dims:
            raise ComplexError(f"complex: no cell {c}")
        return set(self._faces[c])

    def primary_cofaces(self, c: int) -> Set[int]:
        if c not in self._dims:
            raise ComplexError(f"complex: no cell {c}")
        return set(self._cofaces[c])

    def cofaces_closure(self, c: int) -> Set[int]:
        """All cells having c in their iterated boundary, c excluded."""
        if c not in self._dims:
            raise ComplexError(f"complex: no cell {c}")
        seen: Set[int] = set()
        stack = [c]
        while stack:
            for s in self._cofaces[stack.pop()]:
                if s not in seen:
                    seen.add(s)
                    stack.append(s)
        return seen

    def copy(self) -> "SComplex":
        out = SComplex(self.ring)
        out._copy_core(self)
        return out

    def _copy_core(self, src: "SComplex") -> None:
        self._dims = dict(src._dims)
        self._faces = {c: dict(row) for c, row in src._faces.items()}
        self._cofaces = {c: dict(row) for c, row in src._cofaces.items()}
        self._next_id = src._next_id

    def validate(self) -> None:
        """Check the dimension rule, adjacency symmetry, and dd == 0."""
        ring = self.ring
        for s, row in self._faces.items():
            for t, v in row.items():
                if self._dims[s] != self._dims[t] + 1:
                    raise ComplexError(
                        f"complex: cells {s},{t} break the dimension rule")
                if self._cofaces[t].get(s) != v:
                    raise ComplexError(
                        f"complex: asymmetric incidence for cells {s},{t}")
        for s in self._dims:
            acc: Dict[int, object] = {}
            for t, v in self._faces[s].items():
                for u, w in self._faces[t].items():
                    acc[u] = ring.add(acc.get(u, ring.zero), ring.mul(v, w))
            for u, total in acc.items():
                if total != ring.zero:
                    raise ComplexError(
                        f"complex: dd != 0 at cells {s} -> {u}")


class SimplicialComplex(SComplex):
    """An SComplex whose cells are simplices, tagged with vertex tuples."""

    def __init__(self, ring: CoefficientRing = GF2):
        super().__init__(ring)
        self.verts: Dict[int, Tuple[int, ...]] = {}
        self.cell_by_verts: Dict[Tuple[int, ...], int] = {}

    def add_simplex_cell(self, vertices: Tuple[int, ...],
                         cell_id: int | None = None) -> int:
        c = self.add_cell(len(vertices) - 1, cell_id)
        self.verts[c] = vertices
        self.cell_by_verts[vertices] = c
        return c

    def cell_with_verts(self, vertices: Sequence[int]) -> int:
        key = tuple(sorted(vertices))
        try:
            return self.cell_by_verts[key]
        except KeyError:
            raise ComplexError(f"complex: no simplex {key}") from None

    def vertex_ids(self) -> List[int]:
        """Vertex numbers present in the complex, sorted."""
        return sorted(v[0] for c, v in self.verts.items()
                      if self._dims[c] == 0)

    def remove_cell(self, c: int) -> None:
        super().remove_cell(c)
        w = self.verts.pop(c, None)
        if w is not None:
            del self.cell_by_verts[w]

    def copy(self) -> "SimplicialComplex":
        out = SimplicialComplex(self.ring)
        out._copy_core(self)
        out.verts = dict(self.verts)
        out.cell_by_verts = dict(self.cell_by_verts)
        return out

    def plain_copy(self) -> SComplex:
        """Copy as a bare SComplex, dropping simplex bookkeeping."""
        out = SComplex(self.ring)
        out._copy_core(self)
        return out


def _closure(simplices: Iterable[Sequence[int]]) -> List[Tuple[int, ...]]:
    """Every face of the given simplices, in (dimension, vertices) order."""
    levels: Dict[int, Set[Tuple[int, ...]]] = {}
    for simplex in simplices:
        w = tuple(sorted(simplex))
        if w in levels.get(len(w), ()):     # its faces are in already
            continue
        if len(set(w)) != len(w):
            raise ComplexError(f"complex: repeated vertex in simplex {simplex}")
        if not w:
            raise ComplexError("complex: empty simplex")
        for r in range(1, len(w) + 1):
            levels.setdefault(r, set()).update(combinations(w, r))
    return [s for r in sorted(levels) for s in sorted(levels[r])]


def complex_from_simplices(simplices: Iterable[Sequence[int]],
                           ring: CoefficientRing = GF2) -> SimplicialComplex:
    """Build the closure of the given simplices with alternating-sign
    coefficients. Cell ids are assigned in (dimension, vertex-tuple)
    order, so vertices come first in vertex order."""
    return complex_from_closure(_closure(simplices), ring)


def complex_from_closure(closure: Iterable[Tuple[int, ...]],
                         ring: CoefficientRing = GF2) -> SimplicialComplex:
    """Build a complex from a face-closed list of sorted vertex tuples
    with alternating-sign coefficients, giving cell ids in list order.
    In (dimension, vertices) order the list gives what
    complex_from_simplices gives for it; a face missing from the list,
    or listed after its simplex, raises ComplexError."""
    out = SimplicialComplex(ring)
    # Written straight into the tables: every face of a cell is an
    # earlier cell one dimension down, and +-1 is nonzero in every ring,
    # so the checks of add_cell and set_incidence cannot fail.
    signs = (ring.from_int(1), ring.from_int(-1))
    dims, faces, cofaces = out._dims, out._faces, out._cofaces
    by_verts = out.cell_by_verts
    try:
        for c, w in enumerate(closure):
            dims[c] = len(w) - 1
            out.verts[c] = w
            by_verts[w] = c
            row: Dict[int, object] = {}
            if len(w) > 1:
                for i in range(len(w)):
                    t = by_verts[w[:i] + w[i + 1:]]
                    row[t] = signs[i % 2]
                    cofaces[t][c] = signs[i % 2]
            faces[c] = row
            cofaces[c] = {}
    except KeyError as e:
        raise ComplexError(f"complex: face {e.args[0]} of simplex {w} "
                           f"is not listed before it") from None
    out._next_id = len(dims)
    return out


def build_simplicial(vertex_count: int,
                     maximal_simplices: Iterable[Sequence[int]],
                     ring: CoefficientRing = GF2) -> SimplicialComplex:
    """Simplicial complex on vertices 0..vertex_count-1; every vertex is
    included even when isolated, and vertex v gets cell id v."""
    simplices: List[Sequence[int]] = [(v,) for v in range(vertex_count)]
    for s in maximal_simplices:
        for v in s:
            if not 0 <= v < vertex_count:
                raise ComplexError(
                    f"complex: vertex {v} outside 0..{vertex_count - 1}")
        simplices.append(s)
    return complex_from_simplices(simplices, ring)


def vertex_neighbors(S: SimplicialComplex, vid: int) -> Set[int]:
    """Vertex numbers joined to vid by an edge."""
    c = S.cell_with_verts((vid,))
    out: Set[int] = set()
    for e in S.primary_cofaces(c):
        for u in S.verts[e]:
            if u != vid:
                out.add(u)
    return out


def full_subcomplex(S: SimplicialComplex,
                    vertex_set: Set[int]) -> SimplicialComplex:
    """Subcomplex of all cells whose vertices lie in vertex_set, keeping
    the original vertex numbering and the ring."""
    kept = sorted(w for w in S.verts.values()
                  if all(u in vertex_set for u in w))
    kept.sort(key=len)      # stable: (dimension, vertices) order
    return complex_from_closure(kept, S.ring)

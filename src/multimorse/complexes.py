"""Graded cell complexes with sparse incidence coefficients.

An SComplex stores a finite set of cells, each with a dimension, and the
incidence coefficient between a cell and each of its primary faces (cells
one dimension down). Coefficients live in a fixed ring. Each is stored
once, in the face row of the higher cell, a dict from face to
coefficient. The coface row of a cell is a list of ids, appended to
whenever a face row gains the cell; coboundary joins it to those face
rows. Faces and cofaces are O(degree) lookups. The per-cell tables are
lists indexed by cell id, with None at an id that holds no cell (never
used, or removed), so a complex costs one slot per id up to its
largest, holes included. SComplex alone reads and writes them: the
elementary reduction's rewrite is its remove_pair, with the sparse
update of ring.axpy. Cell ids are the integers 0 to
CELL_ID_LIMIT - 1, and a removed cell's id is never given to another
cell. A cell may also carry a label, the sorted tuple of its vertices:
complex_from_closure gives every cell one, with the coefficients of
the alternating-sign rule (dropping the i-th vertex contributes
(-1)**i), and add_cell gives none. The matching and the entry grades
read the tuples and refuse a cell without one. The complex keeps no
index from tuple to id: its readers address cells by id, and the few
that look cells up by vertices build their own map.
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, combinations
from typing import (Dict, Iterable, ItemsView, List, Optional, Sequence, Set,
                    Tuple)

from .rings import GF2, CoefficientRing

# add_cell refuses larger ids: the tables for 2**26 ids take about 1.6 GB,
# and a 98,306-cell mesh uses the first 98,306
CELL_ID_LIMIT = 2 ** 26

# the coface row at the id of a removed cell, where a never-used id has None
_REMOVED: Tuple[int, ...] = ()


class ComplexError(ValueError):
    """Raised for malformed complexes: bad cell ids, dimension-rule
    violations, or a boundary that does not square to zero."""


class SComplex:
    """A finite cell complex with ring-valued incidence coefficients.

    _dims[c], _faces[c] and _cofaces[c] describe cell c. Where id c
    holds no cell, _dims[c] and _faces[c] are None, and _cofaces[c] is
    None if the id was never used and _REMOVED if its cell was removed.
    The lists never shrink, so removing a cell leaves a hole and new ids
    start past the largest id ever used. Ids run from 0 to
    CELL_ID_LIMIT - 1, and add_cell refuses any other id before a table
    grows. No other module reads or writes the tables.

    _cofaces[t] lists s each time _faces[s] gains t. An entry is not
    taken out when its coefficient is, as dropping it would cost the
    row's length each time, quadratic on a vertex of high degree: a
    removed cell's id stays in its faces' coface rows, and an id whose
    entry was zeroed stays in that face's row, so an id can be listed
    twice. The cofaces of t are the listed s whose face row holds t, in
    the order of their last listing, which is the order a dict from
    coface to coefficient would keep. Only set_incidence, which zeroes
    one entry at a time, takes its id out. An id is never given to a
    second cell, which would bring stale entries back: add_cell refuses
    the id of a removed cell, as it refuses one in use.

    verts[c] is the sorted vertex tuple of cell c, and None where id c
    holds no cell or a cell without a tuple; no two cells share a
    tuple.
    """

    def __init__(self, ring: CoefficientRing = GF2):
        self.ring = ring
        self._dims: List[Optional[int]] = []
        # _faces[s][t] is the incidence of s with its face t, and s is
        # listed in _cofaces[t] at least once
        self._faces: List[Optional[Dict[int, object]]] = []
        self._cofaces: List[Optional[Sequence[int]]] = []
        self._count = 0     # ids holding a cell
        self.verts: List[Optional[Tuple[int, ...]]] = []

    # -- construction -------------------------------------------------

    def add_cell(self, dim: int, cell_id: int | None = None) -> int:
        if dim < 0:
            raise ComplexError(f"complex: negative dimension {dim}")
        n = len(self._dims)
        if cell_id is None:
            cell_id = n
        if not 0 <= cell_id < CELL_ID_LIMIT:
            raise ComplexError(f"complex: cell id {cell_id} outside "
                               f"0..{CELL_ID_LIMIT - 1}")
        if cell_id >= n:
            holes = [None] * (cell_id + 1 - n)
            self._dims.extend(holes)
            self._faces.extend(holes)
            self._cofaces.extend(holes)
            self.verts.extend(holes)
        elif self._dims[cell_id] is not None:
            raise ComplexError(f"complex: cell id {cell_id} already in use")
        elif self._cofaces[cell_id] is not None:
            raise ComplexError(
                f"complex: cell id {cell_id} belonged to a removed cell")
        self._dims[cell_id] = dim
        self._faces[cell_id] = {}
        self._cofaces[cell_id] = []
        self._count += 1
        return cell_id

    def set_incidence(self, s: int, t: int, value) -> None:
        """Set the coefficient between cell s and its primary face t.

        The value is first normalized into the ring (2 is zero over z2),
        and a zero value erases the entry. The dimension rule (nonzero
        coefficients only one dimension apart) is enforced here.
        """
        ds, dt = self.dim(s), self.dim(t)
        value = self.ring.from_int(value)
        row = self._faces[s]
        if value == self.ring.zero:
            if row.pop(t, None) is not None:
                self._cofaces[t].remove(s)  # s is listed at least once
            return
        if ds != dt + 1:
            raise ComplexError(
                f"complex: incidence between dim {ds} and dim {dt} cells")
        if t not in row:
            self._cofaces[t].append(s)
        row[t] = value

    def remove_cell(self, c: int) -> None:
        """Delete a cell and every incidence entry that mentions it; its
        id stays in its faces' coface rows, where readers skip it."""
        self.dim(c)
        faces = self._faces
        for s in self._cofaces[c]:
            row = faces[s]
            if row is not None:
                row.pop(c, None)
        self._dims[c] = faces[c] = None
        self._cofaces[c] = _REMOVED
        self._count -= 1
        self.verts[c] = None

    def remove_pair(self, sigma: int, tau: int, pivot
                    ) -> Tuple[Dict[int, object], Dict[int, object]]:
        """Remove sigma and its primary coface tau, whose incidence pivot
        is a unit, and rewrite each other coface eta of sigma as
        eta - old(eta, sigma) / pivot * boundary(tau), the elementary
        reduction of Kaczynski, Mrozek & Slusarek. Returns tau's other
        faces and sigma's other cofaces, each a dict to its coefficient
        as it was before the rewrite."""
        ring, faces, cofaces = self.ring, self._faces, self._cofaces
        sigma_cofaces = self.coboundary(sigma)
        del sigma_cofaces[tau]
        tau_faces = faces[tau]  # removing sigma takes sigma out of it
        self.remove_cell(sigma)
        self.remove_cell(tau)
        div, axpy, minus_pivot = ring.div, ring.axpy, ring.neg(pivot)
        for eta, a in sigma_cofaces.items():
            row = faces[eta]
            # an entry row gains is -a / pivot * b, never zero, so it is
            # listed now; an entry zeroed stays listed (see the class)
            for xi in tau_faces:
                if xi not in row:
                    cofaces[xi].append(eta)
            axpy(row, div(a, minus_pivot), tau_faces)
        return tau_faces, sigma_cofaces

    # -- queries ------------------------------------------------------

    def __contains__(self, c: int) -> bool:
        try:
            return self._dims[c] is not None and c >= 0
        except IndexError:
            return False

    def __len__(self) -> int:
        return self._count

    def dim(self, c: int) -> int:
        # an index past the end raises, and a negative one would
        # alias the end of the table
        try:
            d = self._dims[c]
        except IndexError:
            d = None
        if d is None or c < 0:
            raise ComplexError(f"complex: no cell {c}")
        return d

    @property
    def max_dim(self) -> int:
        """Largest cell dimension, or -1 for an empty complex."""
        return max((d for d in self._dims if d is not None), default=-1)

    def dim_counts(self) -> List[int]:
        """Cells of each dimension, 0 to max_dim, in one pass over the
        dimension table."""
        tally = Counter(self._dims)
        del tally[None]     # the ids that hold no cell
        return [tally[q] for q in range(max(tally, default=-1) + 1)]

    def cells(self) -> List[int]:
        return [c for c, d in enumerate(self._dims) if d is not None]

    def cells_of_dim(self, q: int) -> List[int]:
        return [c for c, d in enumerate(self._dims) if d == q]

    def incidence(self, s: int, t: int):
        self.dim(s)
        self.dim(t)
        return self._faces[s].get(t, self.ring.zero)

    def boundary(self, c: int) -> ItemsView[int, object]:
        """Primary faces of c with their incidence coefficients, as a
        read-only view that follows later edits of the complex."""
        try:
            row = self._faces[c]
        except IndexError:
            row = None
        if row is None or c < 0:
            raise ComplexError(f"complex: no cell {c}")
        return row.items()

    def coboundary(self, c: int) -> Dict[int, object]:
        """Primary cofaces of c with their incidence coefficients, as a
        fresh dict in the order their entries were made (read from the
        face rows of the ids c lists, each at its last listing), which
        later edits of the complex leave as it is."""
        self.dim(c)
        faces = self._faces
        out: Dict[int, object] = {}
        for s in self._cofaces[c]:
            row = faces[s]
            if row is not None and c in row:
                if s in out:
                    del out[s]  # listed again: its entry was made again
                out[s] = row[c]
        return out

    def cell_with_verts(self, vertices: Sequence[int]) -> int:
        """The id of the cell with these vertices, found by a scan of
        verts in O(cells)."""
        key = tuple(sorted(vertices))
        try:
            return self.verts.index(key)
        except ValueError:
            raise ComplexError(f"complex: no simplex {key}") from None

    def vertex_ids(self) -> List[int]:
        """Vertex numbers present in the complex, sorted."""
        return sorted(w[0] for w in self.verts
                      if w is not None and len(w) == 1)

    def cell_without_verts(self) -> Optional[int]:
        """The smallest cell with no vertex tuple, as a cell given by
        add_cell alone has, or None when every cell has one."""
        verts = self.verts
        # verts has None at every id that holds no cell, so a tuple for
        # each cell leaves no other None
        if len(verts) - verts.count(None) == self._count:
            return None
        return next(c for c in self.cells() if verts[c] is None)

    def copy(self) -> "SComplex":
        """An independent copy, vertex tuples included."""
        out = SComplex(self.ring)
        out._dims = list(self._dims)
        out._faces = [None if row is None else dict(row)
                      for row in self._faces]
        # a removed id stays refused, but no stale entry is copied
        out._cofaces = [row if d is None else list(self.coboundary(c))
                        for c, (d, row) in enumerate(zip(self._dims,
                                                         self._cofaces))]
        out._count = self._count
        out.verts = list(self.verts)
        return out

    def validate(self) -> None:
        """Check the dimension rule, that the coface rows list every face
        row entry and no id that was never a cell, and dd == 0."""
        ring = self.ring
        dims, faces, cofaces = self._dims, self._faces, self._cofaces
        cells = self.cells()
        unlisted = 0    # face row entries not yet found in a coface row
        for s in cells:
            for t in faces[s]:
                if dims[s] != dims[t] + 1:
                    raise ComplexError(
                        f"complex: cells {s},{t} break the dimension rule")
            unlisted += len(faces[s])
        for t in cells:
            for s in cofaces[t]:
                if dims[s] is None and cofaces[s] is not _REMOVED:
                    raise ComplexError(
                        f"complex: cell {t} lists {s}, which was never a cell")
            unlisted -= len(self.coboundary(t))
        if unlisted:
            for s in cells:
                for t in faces[s]:
                    if s not in cofaces[t]:
                        raise ComplexError(f"complex: asymmetric incidence "
                                           f"for cells {s},{t}")
        for s in cells:
            acc: Dict[int, object] = {}     # dd(s), zeros dropped
            for t, v in faces[s].items():
                ring.axpy(acc, v, faces[t])
            if acc:
                raise ComplexError(
                    f"complex: dd != 0 at cells {s} -> {next(iter(acc))}")


def _closure(simplices: Iterable[Sequence[int]]
             ) -> List[Set[Tuple[int, ...]]]:
    """Every face of the given simplices, by dimension: entry q is the
    set of q-simplices, as sorted vertex tuples."""
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
    return [levels[r] for r in sorted(levels)]


def complex_from_simplices(simplices: Iterable[Sequence[int]],
                           ring: CoefficientRing = GF2) -> SComplex:
    """Build the closure of the given simplices with alternating-sign
    coefficients. Cell ids are assigned in (dimension, vertex-tuple)
    order, so vertices come first in vertex order."""
    return complex_from_closure(chain.from_iterable(_closure(simplices)),
                                ring)


def complex_from_closure(closure: Iterable[Tuple[int, ...]],
                         ring: CoefficientRing = GF2) -> SComplex:
    """Build a complex from a face-closed collection of sorted vertex
    tuples, in any order, with alternating-sign coefficients. Cell ids
    are given in (dimension, vertices) order, as complex_from_simplices
    gives them; a face missing from the collection, and a tuple listed
    twice, raise ComplexError."""
    cells = sorted(closure)
    cells.sort(key=len)     # stable: (dimension, vertices) order
    out = SComplex(ring)
    # Written straight into the tables: ids count up from 0, every face
    # of a cell is an earlier cell one dimension down, and +-1 is nonzero
    # in every ring, so the checks of add_cell and set_incidence cannot
    # fail (short of CELL_ID_LIMIT cells, which no memory holds).
    signs = (ring.from_int(1), ring.from_int(-1))
    dims, faces, cofaces = out._dims, out._faces, out._cofaces
    out.verts = cells   # the sorted list is the complex's own
    # the face lookup lives only until the complex is built
    by_verts: Dict[Tuple[int, ...], int] = {}
    try:
        for c, w in enumerate(cells):
            dims.append(len(w) - 1)
            by_verts[w] = c
            row: Dict[int, object] = {}
            if len(w) > 1:
                for i in range(len(w)):
                    t = by_verts[w[:i] + w[i + 1:]]
                    row[t] = signs[i % 2]
                    cofaces[t].append(c)
            faces.append(row)
            cofaces.append([])
    except KeyError as e:
        raise ComplexError(f"complex: face {e.args[0]} of simplex {w} "
                           f"is not listed") from None
    if len(by_verts) != len(cells):
        # the first listing of a repeat maps to a later id
        w = next(w for c, w in enumerate(cells) if by_verts[w] != c)
        raise ComplexError(f"complex: simplex {w} is listed twice")
    out._count = len(dims)
    return out


def simplicial_closure(vertex_count: int,
                       maximal_simplices: Iterable[Sequence[int]]
                       ) -> List[Set[Tuple[int, ...]]]:
    """The closure of the vertices 0..vertex_count-1 and the given
    simplices, by dimension as _closure gives it. Every vertex is
    included even when isolated, after the simplices, so that its tuple
    holds their int."""
    simplices: List[Sequence[int]] = list(maximal_simplices)
    for s in simplices:
        for v in s:
            if not 0 <= v < vertex_count:
                raise ComplexError(
                    f"complex: vertex {v} outside 0..{vertex_count - 1}")
    simplices.extend((v,) for v in range(vertex_count))
    return _closure(simplices)


def build_simplicial(vertex_count: int,
                     maximal_simplices: Iterable[Sequence[int]],
                     ring: CoefficientRing = GF2) -> SComplex:
    """Simplicial complex on vertices 0..vertex_count-1; every vertex is
    included even when isolated, and vertex v gets cell id v."""
    return complex_from_closure(chain.from_iterable(
        simplicial_closure(vertex_count, maximal_simplices)), ring)


def full_subcomplex(S: SComplex, vertex_set: Set[int]) -> SComplex:
    """Subcomplex of all cells whose vertices lie in vertex_set, keeping
    the original vertex numbering and the ring."""
    bare = S.cell_without_verts()
    if bare is not None:
        raise ComplexError(f"complex: cell {bare} has no vertex tuple")
    return complex_from_closure(
        [w for w in S.verts
         if w is not None and all(u in vertex_set for u in w)], S.ring)

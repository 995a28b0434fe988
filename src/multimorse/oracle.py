"""Brute-force homology and persistent-rank certification.

Everything here recomputes ranks directly from boundary matrices by
exact Gaussian elimination, deliberately sharing no code with the
matching or reduction machinery, so it can certify their output. The
rank of the map H_q(sublevel at alpha) -> H_q(sublevel at beta) over a
field equals the number of cycle-space basis vectors at alpha that stay
independent modulo the boundary space at beta; the implementation counts
exactly that, caching cycle bases per (alpha, q) and boundary echelons
per (beta, q). Integer homology (Betti numbers plus torsion) goes
through a Smith normal form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .complexes import SComplex
from .filtration import Grade, critical_grades, leq, sublevel_cells
from .rings import RATIONALS, CoefficientRing, Integers


class OracleError(ValueError):
    """Raised for unusable oracle inputs: non-field coefficients where a
    field is required, incomparable grades, or sublevel sets that are
    not closed under faces."""


def _axpy(target: Dict[int, object], c, source: Dict[int, object],
          fld: CoefficientRing) -> None:
    for k, v in source.items():
        nv = fld.add(target.get(k, fld.zero), fld.mul(c, v))
        if nv == fld.zero:
            target.pop(k, None)
        else:
            target[k] = nv


def _scaled(vec: Dict[int, object], c, fld: CoefficientRing) -> Dict[int, object]:
    return {k: fld.mul(c, v) for k, v in vec.items()}


class _Echelon:
    """Row space of inserted vectors; each stored row is normalized so
    its largest-key entry (the pivot) has coefficient one. A base
    echelon, when given, is read after the own rows and never
    modified."""

    def __init__(self, fld: CoefficientRing,
                 base: Optional["_Echelon"] = None):
        self.fld = fld
        self.rows: Dict[int, Dict[int, object]] = {}
        self.base = base.rows if base is not None else {}

    def insert(self, vec: Dict[int, object]) -> bool:
        """Add vec to the space; True when it was independent."""
        fld = self.fld
        vec = dict(vec)
        while vec:
            p = max(vec)
            row = self.rows.get(p) or self.base.get(p)
            if row is None:
                self.rows[p] = _scaled(vec, fld.inv(vec[p]), fld)
                return True
            _axpy(vec, fld.neg(vec[p]), row, fld)
        return False

    @property
    def rank(self) -> int:
        return len(self.rows)


def _independent_count(vectors: List[Dict[int, object]], base: _Echelon,
                       fld: CoefficientRing) -> int:
    """How many of the vectors are independent modulo base."""
    ech = _Echelon(fld, base)
    return sum(ech.insert(v) for v in vectors)


def _field_view(S: SComplex, field: Optional[CoefficientRing]
                ) -> Tuple[CoefficientRing, Callable]:
    """Resolve the field to compute over and the coefficient coercion.

    Integer-coefficient complexes default to the rationals; a complex
    over a field must be computed over that same field."""
    ring = S.ring
    if field is None:
        fld = ring if ring.is_field else RATIONALS
    else:
        fld = field
    if not fld.is_field:
        raise OracleError("oracle: rank computations need field coefficients")
    if fld == ring:
        return fld, lambda v: v
    if isinstance(ring, Integers):
        return fld, fld.from_int
    raise OracleError(
        f"oracle: cannot view {ring.name} coefficients in {fld.name}")


def _restricted_column(S: SComplex, c: int, cell_set,
                       fld: CoefficientRing, conv) -> Dict[int, object]:
    col: Dict[int, object] = {}
    for t, v in S.boundary(c):
        if t not in cell_set:
            raise OracleError(
                f"oracle: face {t} of cell {c} missing from sublevel set")
        w = conv(v)
        if w != fld.zero:
            col[t] = w
    return col


def _by_dim(S: SComplex, cell_set) -> Dict[int, List[int]]:
    """The cells of cell_set bucketed by dimension, each bucket sorted."""
    out: Dict[int, List[int]] = {}
    for c in sorted(cell_set):
        out.setdefault(S.dim(c), []).append(c)
    return out


def _cycle_basis(S: SComplex, q_cells: List[int], cell_set,
                 fld: CoefficientRing, conv) -> List[Dict[int, object]]:
    """Basis of the q-cycles of the subcomplex on cell_set, each vector a
    combination of its q-cells, given sorted as q_cells."""
    pivots: Dict[int, Tuple[Dict, Dict]] = {}
    kernel: List[Dict[int, object]] = []
    for c in q_cells:
        vec = _restricted_column(S, c, cell_set, fld, conv)
        comb = {c: fld.one}
        while vec:
            p = max(vec)
            if p not in pivots:
                inv = fld.inv(vec[p])
                pivots[p] = (_scaled(vec, inv, fld), _scaled(comb, inv, fld))
                break
            pv, pc = pivots[p]
            s = fld.neg(vec[p])
            _axpy(vec, s, pv, fld)
            _axpy(comb, s, pc, fld)
        if not vec:
            kernel.append(comb)
    return kernel


def _boundary_echelon(S: SComplex, upper_cells: List[int], cell_set,
                      fld: CoefficientRing, conv) -> _Echelon:
    """Echelon of the q-boundaries of the subcomplex on cell_set, given
    its (q+1)-cells sorted as upper_cells."""
    ech = _Echelon(fld)
    for c in upper_cells:
        ech.insert(_restricted_column(S, c, cell_set, fld, conv))
    return ech


@dataclass
class HomologyRanks:
    """Betti numbers by dimension; torsion coefficients by dimension when
    computed over the integers, else None."""

    betti: List[int]
    torsion: Optional[List[List[int]]] = None

    def betti_of(self, q: int) -> int:
        return self.betti[q] if 0 <= q < len(self.betti) else 0


def _integer_torsion(S: SComplex, q: int) -> List[int]:
    """Invariant factors above one of the boundary map from the
    (q+1)-chains to the q-chains. Unit pivots are eliminated sparsely,
    column by column; the residue, which has no unit entry, goes through
    a dense Smith form."""
    cols = {c: {t: int(v) for t, v in S.boundary(c)}
            for c in S.cells_of_dim(q + 1)}
    by_row: Dict[int, set] = {}  # row -> columns that have held it
    for c, col in cols.items():
        for t in col:
            by_row.setdefault(t, set()).add(c)
    for c in list(cols):
        col = cols[c]
        r = next((t for t, v in col.items() if v in (1, -1)), None)
        if r is None:
            continue
        del cols[c]
        for d in by_row[r]:
            other = cols.get(d, {})
            if r not in other:  # d was a pivot, or lost row r since
                continue
            factor = other[r] * col[r]
            for t, v in col.items():
                nv = other.get(t, 0) - factor * v
                if nv:
                    other[t] = nv
                    by_row[t].add(d)
                else:
                    del other[t]
    rows = sorted({t for col in cols.values() for t in col})
    m = [[col.get(t, 0) for col in cols.values()] for t in rows]
    return sorted(d for d in _smith_diagonal(m) if d > 1)


def _smith_diagonal(m: List[List[int]]) -> List[int]:
    """Nonzero Smith invariants of a dense integer matrix, consumed."""
    out: List[int] = []
    while any(map(any, m)):
        _, i, j = min((abs(v), i, j) for i, row in enumerate(m)
                      for j, v in enumerate(row) if v)
        m[0], m[i] = m[i], m[0]
        for row in m:
            row[0], row[j] = row[j], row[0]
        p = m[0][0]
        for row in m[1:]:
            f = row[0] // p
            row[:] = [a - f * b for a, b in zip(row, m[0])]
        for j in range(1, len(m[0])):
            f = m[0][j] // p
            for row in m:
                row[j] -= f * row[0]
        if any(m[0][1:]):
            continue  # a remainder below |p| is left; it pivots next
        bad = next((row for row in m[1:] if any(v % p for v in row)), None)
        if bad is not None:  # p must divide the rest: force a remainder
            m[0] = [a + b for a, b in zip(m[0], bad)]
            continue
        out.append(abs(p))
        m = [row[1:] for row in m[1:]]
    return out


def homology(S: SComplex, ring: Optional[CoefficientRing] = None
             ) -> HomologyRanks:
    """Homology ranks of the whole complex over the given ring (default:
    the complex's own ring). Field coefficients give Betti numbers;
    integer coefficients also give torsion."""
    target = ring if ring is not None else S.ring
    with_torsion = isinstance(target, Integers)
    if with_torsion and not isinstance(S.ring, Integers):
        raise OracleError(
            f"oracle: cannot view {S.ring.name} coefficients in z")
    fld, conv = _field_view(S, None if with_torsion else target)
    top = S.max_dim
    if top < 0:
        return HomologyRanks([], [] if with_torsion else None)
    all_cells = set(S.cells())
    by_dim = _by_dim(S, all_cells)
    betti: List[int] = []
    torsion: Optional[List[List[int]]] = [] if with_torsion else None
    for q in range(top + 1):
        cycles = len(_cycle_basis(S, by_dim.get(q, []), all_cells, fld,
                                  conv))
        borders = _boundary_echelon(S, by_dim.get(q + 1, []), all_cells,
                                    fld, conv).rank
        betti.append(cycles - borders)
        if with_torsion:
            torsion.append(_integer_torsion(S, q))
    return HomologyRanks(betti, torsion)


def persistent_rank(S: SComplex, grades: Dict[int, Grade], alpha: Grade,
                    beta: Grade, q: int,
                    field: Optional[CoefficientRing] = None) -> int:
    """Rank of H_q(sublevel at alpha) -> H_q(sublevel at beta)."""
    if not leq(alpha, beta):
        raise OracleError(f"oracle: grades {alpha} and {beta} are not ordered")
    fld, conv = _field_view(S, field)
    cells_a = sublevel_cells(grades, alpha)
    cells_b = sublevel_cells(grades, beta)
    cycles = _cycle_basis(S, _by_dim(S, cells_a).get(q, []), cells_a, fld,
                          conv)
    base = _boundary_echelon(S, _by_dim(S, cells_b).get(q + 1, []), cells_b,
                             fld, conv)
    return _independent_count(cycles, base, fld)


def _thin(grid: List[Grade], max_grades: Optional[int]) -> List[Grade]:
    if max_grades is None or len(grid) <= max_grades:
        return list(grid)
    if max_grades < 1:
        raise OracleError("oracle: max_grades must be positive")
    if max_grades == 1:
        return [grid[-1]]
    picked = []
    for i in range(max_grades):
        j = round(i * (len(grid) - 1) / (max_grades - 1))
        if not picked or grid[j] != picked[-1]:
            picked.append(grid[j])
    return picked


def rank_table(S: SComplex, grades: Dict[int, Grade],
               field: Optional[CoefficientRing] = None,
               q_max: Optional[int] = None,
               grid: Optional[Sequence[Grade]] = None,
               max_grades: Optional[int] = None
               ) -> Dict[Tuple[int, Grade, Grade], int]:
    """Persistent ranks for every ordered pair of grid grades and every
    dimension up to q_max. The default grid is the complex's distinct
    entry grades; max_grades thins it to evenly spaced picks.

    Each grid grade's sublevel set is computed and bucketed by dimension
    once; cycle bases are cached per (alpha, q) and boundary echelons
    per (beta, q), so each is eliminated once however many pairs read
    it."""
    fld, conv = _field_view(S, field)
    if grid is None:
        grid = critical_grades(grades)
    grid = _thin(sorted(set(grid)), max_grades)
    q_hi = S.max_dim if q_max is None else q_max
    sublevels = {g: sublevel_cells(grades, g) for g in grid}
    buckets = {g: _by_dim(S, cells) for g, cells in sublevels.items()}
    cycles: Dict[Tuple[Grade, int], List[Dict[int, object]]] = {}
    borders: Dict[Tuple[Grade, int], _Echelon] = {}
    table: Dict[Tuple[int, Grade, Grade], int] = {}
    for alpha in grid:
        for beta in grid:
            if not leq(alpha, beta):
                continue
            for q in range(q_hi + 1):
                if (alpha, q) not in cycles:
                    cycles[alpha, q] = _cycle_basis(
                        S, buckets[alpha].get(q, []), sublevels[alpha],
                        fld, conv)
                if (beta, q) not in borders:
                    borders[beta, q] = _boundary_echelon(
                        S, buckets[beta].get(q + 1, []), sublevels[beta],
                        fld, conv)
                table[q, alpha, beta] = _independent_count(
                    cycles[alpha, q], borders[beta, q], fld)
    return table


def _grade_text(g: Grade) -> str:
    return ",".join(str(x) for x in g)


@dataclass
class EquivalenceReport:
    """Side-by-side persistent ranks of an original complex and its
    reduction over a shared grade grid."""

    ok: bool
    q_max: int
    grid: List[Grade]
    ranks_original: Dict[Tuple[int, Grade, Grade], int]
    ranks_reduced: Dict[Tuple[int, Grade, Grade], int]
    mismatches: List[Tuple[int, Grade, Grade]]

    def lines(self) -> List[str]:
        flagged = set(self.mismatches)
        out = []
        for key in sorted(self.ranks_original):
            q, alpha, beta = key
            v = self.ranks_original[key]
            text = f"RANK {q} {_grade_text(alpha)} {_grade_text(beta)} {v}"
            if key in flagged:
                text += f" != {self.ranks_reduced[key]} MISMATCH"
            out.append(text)
        return out

    def summary(self) -> str:
        checked = len(self.ranks_original)
        if self.ok:
            return f"PASS checked={checked} grades={len(self.grid)}"
        return (f"FAIL mismatches={len(self.mismatches)} "
                f"checked={checked} grades={len(self.grid)}")


def verify_equivalence(S: SComplex, grades_s: Dict[int, Grade],
                       reduced: SComplex, grades_r: Dict[int, Grade],
                       field: Optional[CoefficientRing] = None,
                       q_max: Optional[int] = None,
                       max_grades: Optional[int] = None
                       ) -> EquivalenceReport:
    """Compare persistent ranks of a complex and its reduction on the
    grid of the original's entry grades. Both tables are computed
    independently from boundary matrices."""
    grid = _thin(critical_grades(grades_s), max_grades)
    q_hi = max(S.max_dim, reduced.max_dim, 0) if q_max is None else q_max
    t_orig = rank_table(S, grades_s, field, q_hi, grid)
    t_red = rank_table(reduced, grades_r, field, q_hi, grid)
    mismatches = [k for k in sorted(t_orig) if t_red.get(k) != t_orig[k]]
    return EquivalenceReport(not mismatches, q_hi, list(grid),
                             t_orig, t_red, mismatches)

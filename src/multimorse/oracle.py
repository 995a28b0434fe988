"""Brute-force homology and persistent-rank certification.

Everything here recomputes ranks directly from boundary matrices by
exact Gaussian elimination, deliberately sharing no code with the
matching or reduction machinery, so it can certify their output.

For each grid grade alpha, the sublevel set at alpha is column-reduced
one dimension at a time, from the top down. One elimination of its
q-cells gives both its q-cycles (the cell combinations that reduce to
zero) and its (q-1)-boundaries (the pivots). A q-cell that is the pivot
of a reduced (q+1)-column is left out of the q elimination (clearing,
after Chen & Kerber, "Persistent homology computation with a twist"):
its column would reduce to zero and give a boundary. Over a field this
is exact for any chain complex whose boundary squares to zero, whatever
the cell order; the face-closure check still runs on every cell. Each
cell's boundary column is converted once per table. The cycles left
are the homology representatives of alpha, and the rank of
H_q(alpha) -> H_q(beta) is the number of them that stay independent
modulo the boundaries at beta. Integer homology (Betti numbers plus
torsion) goes through a Smith normal form; when both complexes are over
the integers, verify_equivalence also compares the torsion of their
sublevel complexes.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from operator import le
from typing import (Callable, Container, Dict, Iterator, KeysView, List,
                    Optional, Sequence, Set, Tuple)

from .complexes import SComplex
from .filtration import Grade, GradeError, critical_grades, leq
from .rings import RATIONALS, CoefficientRing, Integers


class OracleError(ValueError):
    """Raised for unusable oracle inputs: non-field coefficients where a
    field is required, incomparable grades, or sublevel sets that are
    not closed under faces."""


def _scaled(vec: Dict[int, object], c, fld: CoefficientRing) -> Dict[int, object]:
    """c * vec; vec itself (the caller's to give away) when c is one."""
    if c == fld.one:
        return vec
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
            fld.axpy(vec, fld.neg(vec[p]), row)
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
                ) -> Tuple[CoefficientRing, Optional[Callable]]:
    """Resolve the field to compute over and the coefficient coercion,
    None when the complex's own values serve.

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
        return fld, None
    if isinstance(ring, Integers):
        return fld, fld.from_int
    raise OracleError(
        f"oracle: cannot view {ring.name} coefficients in {fld.name}")


class _Columns:
    """Boundary columns over the computing field, each converted and
    stripped of zeros once, however many sublevel sets hold its cell."""

    def __init__(self, S: SComplex, fld: CoefficientRing,
                 conv: Optional[Callable]):
        self.S, self.fld, self.conv = S, fld, conv
        self.cache: Dict[int, Tuple[KeysView, Dict[int, object]]] = {}

    def of(self, cells: Sequence[int], below: Set[int],
           cleared: Container[int]) -> List[Tuple[int, Dict[int, object]]]:
        """(cell, column) for each cell not in cleared; raises
        OracleError unless every face of every cell, cleared or not,
        lies in below."""
        out = []
        cache = self.cache
        for c in cells:
            entry = cache.get(c)
            if entry is None:
                col = dict(self.S.boundary(c))
                faces = col.keys()
                if self.conv is not None:
                    zero, conv = self.fld.zero, self.conv
                    col = {t: w for t, w in zip(col, map(conv, col.values()))
                           if w != zero}
                entry = cache[c] = (faces, col)
            if not entry[0] <= below:
                t = next(t for t in entry[0] if t not in below)
                raise OracleError(
                    f"oracle: face {t} of cell {c} missing from sublevel set")
            if c not in cleared:
                out.append((c, entry[1]))
        return out


def _eliminate(cols: List[Tuple[int, Dict[int, object]]],
               fld: CoefficientRing, track: bool
               ) -> Tuple[Dict[int, Dict[int, object]], _Echelon]:
    """Column-reduce the boundary columns of a set of q-cells, given in
    ascending cell order. Returns the echelon of the (q-1)-boundaries,
    built from the pivots, and, when track is set, a basis of the
    q-cycles, built from the cell combinations that reduce to zero
    (else none). Each cycle is keyed by the cell whose column
    reduced to zero, which is also its largest cell: the combination
    adds only cells that came before."""
    ech = _Echelon(fld)
    pivots = ech.rows
    combs: Dict[int, Dict[int, object]] = {}
    cycles: Dict[int, Dict[int, object]] = {}
    axpy, neg, one = fld.axpy, fld.neg, fld.one
    for c, col in cols:
        vec = dict(col)
        comb = {c: one}
        while vec:
            p = max(vec)
            row = pivots.get(p)
            if row is None:
                inv = fld.inv(vec[p])
                pivots[p] = _scaled(vec, inv, fld)
                if track:
                    combs[p] = _scaled(comb, inv, fld)
                break
            s = neg(vec[p])
            axpy(vec, s, row)
            if track:
                axpy(comb, s, combs[p])
        else:
            if track:
                cycles[c] = comb
    return cycles, ech


def _top_down(columns: _Columns, levels: Sequence[Sequence[int]],
              track_to: int
              ) -> Iterator[Tuple[int, Dict[int, Dict[int, object]],
                                  _Echelon]]:
    """Eliminate levels[q], the q-cells of a face-closed cell set in
    ascending order, for q from the top down to 0, yielding q, the
    q-cycles (for q <= track_to, else none) and the echelon of the
    (q-1)-boundaries. The pivots of the (q+1)-boundaries are cleared
    from the q elimination: a reduced (q+1)-column with pivot c is a
    cycle whose largest cell is c, so the column of c reduces to zero
    and no other column changes. The cycles yielded are the homology
    representatives."""
    cleared: Dict[int, Dict[int, object]] = {}
    for q in range(len(levels) - 1, -1, -1):
        below = set(levels[q - 1]) if q else set()
        cycles, ech = _eliminate(columns.of(levels[q], below, cleared),
                                 columns.fld, q <= track_to)
        yield q, cycles, ech
        cleared = ech.rows


def _check_arity(grid: Sequence[Grade], grades: Dict[int, Grade]) -> None:
    if not grid:
        return
    n = len(grid[0])
    for g in (*grid, *grades.values()):
        if len(g) != n:
            raise GradeError(f"grades: arity mismatch {len(g)} vs {n}")


def _sublevel_buckets(S: SComplex, grades: Dict[int, Grade],
                      grid: Sequence[Grade], top: int
                      ) -> Dict[Grade, List[List[int]]]:
    """For each grid grade, its sublevel cells of each dimension 0..top,
    each list in ascending cell order. A grade componentwise below alpha
    is also lexicographically below it, so each bucket is a filtered
    prefix of one sort per dimension."""
    by_dim: List[List[Tuple[Grade, int]]] = [[] for _ in range(top + 1)]
    for c, g in grades.items():
        d = S.dim(c)
        if d <= top:
            by_dim[d].append((g, c))
    keys = []
    for pairs in by_dim:
        pairs.sort()
        keys.append([g for g, _ in pairs])
    out: Dict[Grade, List[List[int]]] = {}
    for alpha in grid:
        last = alpha[-1]
        out[alpha] = buckets = []
        for pairs, ks in zip(by_dim, keys):
            prefix = pairs[:bisect_right(ks, alpha)]
            # the first component of a lexicographic prefix is below
            # alpha's already, so for k <= 2 the last one decides
            if len(alpha) <= 2:
                cells = [c for g, c in prefix if g[-1] <= last]
            else:
                cells = [c for g, c in prefix if all(map(le, g, alpha))]
            buckets.append(sorted(cells))
    return out


@dataclass
class HomologyRanks:
    """Betti numbers by dimension; torsion coefficients by dimension when
    computed over the integers, else None."""

    betti: List[int]
    torsion: Optional[List[List[int]]] = None

    def betti_of(self, q: int) -> int:
        return self.betti[q] if 0 <= q < len(self.betti) else 0


def _integer_torsion(S: SComplex, q: int,
                     upper: Optional[Sequence[int]] = None) -> List[int]:
    """Invariant factors above one of the boundary map from the
    (q+1)-chains to the q-chains; upper restricts it to those (q+1)-cells
    (a subcomplex's, whose faces it holds). Unit pivots are eliminated
    sparsely, column by column; the residue, which has no unit entry,
    goes through a dense Smith form."""
    if upper is None:
        upper = S.cells_of_dim(q + 1)
    cols = {c: {t: int(v) for t, v in S.boundary(c)} for c in upper}
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
    by_dim = [S.cells_of_dim(q) for q in range(top + 2)]
    # ranks[q] is the rank of the boundary map out of the q-chains
    ranks = [0] * (top + 2)
    for q, _, ech in _top_down(_Columns(S, fld, conv), by_dim, -1):
        ranks[q] = ech.rank
    betti = [len(by_dim[q]) - ranks[q] - ranks[q + 1]
             for q in range(top + 1)]
    torsion = ([_integer_torsion(S, q) for q in range(top + 1)]
               if with_torsion else None)
    return HomologyRanks(betti, torsion)


def persistent_rank(S: SComplex, grades: Dict[int, Grade], alpha: Grade,
                    beta: Grade, q: int,
                    field: Optional[CoefficientRing] = None) -> int:
    """Rank of H_q(sublevel at alpha) -> H_q(sublevel at beta)."""
    if not leq(alpha, beta):
        raise OracleError(f"oracle: grades {alpha} and {beta} are not ordered")
    table = rank_table(S, grades, field, q, [alpha, beta])
    return table.get((q, alpha, beta), 0)


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

    Each grid grade alpha costs one elimination per dimension, from the
    top down with clearing, which gives both its boundaries B_q(alpha)
    and the cycles that complete them to a basis of all cycles, its
    homology representatives. As B_q(alpha) lies in B_q(beta) for
    alpha <= beta, the rank of H_q(alpha) -> H_q(beta) counts the
    representatives of alpha that stay independent modulo B_q(beta)."""
    fld, conv = _field_view(S, field)
    if grid is None:
        grid = critical_grades(grades)
    grid = _thin(sorted(set(grid)), max_grades)
    q_hi = S.max_dim if q_max is None else q_max
    _check_arity(grid, grades)
    buckets = _sublevel_buckets(S, grades, grid, q_hi + 1)
    columns = _Columns(S, fld, conv)
    borders: Dict[Tuple[Grade, int], _Echelon] = {}
    reps: Dict[Tuple[Grade, int], List[Dict[int, object]]] = {}
    for alpha in grid:
        # cycles are needed up to q_hi; the level above gives the
        # boundaries of q_hi only
        for q, cycles, ech in _top_down(columns, buckets[alpha], q_hi):
            if q <= q_hi:
                reps[alpha, q] = list(cycles.values())
            if q:
                borders[alpha, q - 1] = ech
    table: Dict[Tuple[int, Grade, Grade], int] = {}
    for alpha in grid:
        for beta in grid:
            if not leq(alpha, beta):
                continue
            for q in range(q_hi + 1):
                table[q, alpha, beta] = _independent_count(
                    reps[alpha, q], borders[beta, q], fld)
    return table


def _grade_text(g: Grade) -> str:
    return ",".join(str(x) for x in g)


@dataclass
class EquivalenceReport:
    """Side-by-side persistent ranks of an original complex and its
    reduction over a shared grade grid; over the integers also the
    torsion of both sublevel complexes at each grid grade, as
    (q, grade, original's, reduction's) where the two differ."""

    ok: bool
    q_max: int
    grid: List[Grade]
    ranks_original: Dict[Tuple[int, Grade, Grade], int]
    ranks_reduced: Dict[Tuple[int, Grade, Grade], int]
    mismatches: List[Tuple[int, Grade, Grade]]
    torsion_mismatches: Sequence[Tuple[int, Grade, List[int], List[int]]] = ()

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
        for q, alpha, t_orig, t_red in self.torsion_mismatches:
            out.append(f"TORSION {q} {_grade_text(alpha)} {t_orig} != "
                       f"{t_red} MISMATCH")
        return out

    def summary(self) -> str:
        checked = len(self.ranks_original)
        if self.ok:
            return f"PASS checked={checked} grades={len(self.grid)}"
        bad = len(self.mismatches) + len(self.torsion_mismatches)
        return (f"FAIL mismatches={bad} "
                f"checked={checked} grades={len(self.grid)}")


def _torsion_mismatches(S: SComplex, grades_s: Dict[int, Grade],
                        reduced: SComplex, grades_r: Dict[int, Grade],
                        grid: Sequence[Grade], q_hi: int
                        ) -> List[Tuple[int, Grade, List[int], List[int]]]:
    """Where the integer torsion of the two sublevel complexes differs,
    by dimension and then grid grade."""
    b_orig = _sublevel_buckets(S, grades_s, grid, q_hi + 1)
    b_red = _sublevel_buckets(reduced, grades_r, grid, q_hi + 1)
    out = []
    for q in range(q_hi + 1):
        for alpha in grid:
            t_orig = _integer_torsion(S, q, b_orig[alpha][q + 1])
            t_red = _integer_torsion(reduced, q, b_red[alpha][q + 1])
            if t_orig != t_red:
                out.append((q, alpha, t_orig, t_red))
    return out


def verify_equivalence(S: SComplex, grades_s: Dict[int, Grade],
                       reduced: SComplex, grades_r: Dict[int, Grade],
                       field: Optional[CoefficientRing] = None,
                       q_max: Optional[int] = None,
                       max_grades: Optional[int] = None
                       ) -> EquivalenceReport:
    """Compare persistent ranks of a complex and its reduction on the
    grid of the original's entry grades, and when both are over the
    integers also the torsion of their sublevel complexes at each grid
    grade. Both sides are computed independently from boundary
    matrices."""
    grid = _thin(critical_grades(grades_s), max_grades)
    q_hi = max(S.max_dim, reduced.max_dim, 0) if q_max is None else q_max
    t_orig = rank_table(S, grades_s, field, q_hi, grid)
    t_red = rank_table(reduced, grades_r, field, q_hi, grid)
    mismatches = [k for k in sorted(t_orig) if t_red.get(k) != t_orig[k]]
    torsion: List[Tuple[int, Grade, List[int], List[int]]] = []
    if isinstance(S.ring, Integers) and isinstance(reduced.ring, Integers):
        torsion = _torsion_mismatches(S, grades_s, reduced, grades_r, grid,
                                      q_hi)
    return EquivalenceReport(not mismatches and not torsion, q_hi,
                             list(grid), t_orig, t_red, mismatches, torsion)

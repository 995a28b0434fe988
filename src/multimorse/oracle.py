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
the cell order. Ranks are over the complex's own field, or Q for an
integer complex, whose entries are exact in Fraction arithmetic, so
boundary columns are read as they are. A table first checks, once, that
every face is graded at or below its cell. The cycles left are the
homology representatives of alpha, and the rank of H_q(alpha) ->
H_q(beta) is the number of them that stay independent modulo the
boundaries at beta. Integer homology (Betti numbers plus torsion) goes
through a Smith normal form; when both complexes are over the integers,
verify_equivalence also compares the torsion of their sublevel complexes.
"""

from __future__ import annotations

from bisect import bisect_right
from operator import le
from typing import Dict, ItemsView, Iterator, List, Optional, Sequence, Tuple

from .complexes import SComplex
from .filtration import Grade, GradeError, critical_grades
from .rings import INTEGERS, RATIONALS, CoefficientRing, Integers

_Vec = Dict[int, object]        # sparse vector: key -> nonzero coefficient
_Rows = Dict[int, _Vec]         # vectors keyed by a cell or pivot


class OracleError(ValueError):
    """Raised for unusable oracle inputs: coefficients the complex's
    ring cannot be read in, a grid limit below one, a face graded
    outside its cell's sublevel sets, or a reduction that is the
    original itself."""


def _scaled(vec: _Vec, c, fld: CoefficientRing) -> _Vec:
    """c * vec; vec itself (the caller's to give away) when c is one."""
    if c == fld.one:
        return vec
    return {k: fld.mul(c, v) for k, v in vec.items()}


def _eliminate(cols: List[Tuple[int, _Vec | ItemsView[int, object]]],
               fld: CoefficientRing, track: bool, base: _Rows
               ) -> Tuple[_Rows, _Rows]:
    """Column-reduce cols (each a vector or its items, copied, never
    changed), in order, modulo the rows of base, which is only read. A
    column that does not reduce to zero becomes a new row, stored under
    its largest key (its pivot) and scaled to one there; only a pivot
    in neither dict is stored, so one lookup serves both.
    Returns, when track is set (base must then be empty), each column
    that reduced to zero as a combination of cols, keyed by its cell,
    and the new rows.

    On the boundary columns of some q-cells in ascending cell order,
    the rows are the (q-1)-boundaries and the combinations a basis of
    the q-cycles, each keyed by its largest cell: a combination adds
    only cells that came before."""
    pivots: _Rows = {}
    combs: _Rows = {}
    cycles: _Rows = {}
    axpy, neg, one = fld.axpy, fld.neg, fld.one
    for c, col in cols:
        vec = dict(col)
        comb = {c: one}
        while vec:
            p = max(vec)
            row = pivots.get(p) or base.get(p)
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
    return cycles, pivots


def _top_down(S: SComplex, fld: CoefficientRing,
              levels: Sequence[Sequence[int]], track_to: int
              ) -> Iterator[Tuple[int, _Rows, _Rows]]:
    """Eliminate levels[q], the q-cells of a face-closed cell set in
    ascending order, for q from the top down to 0, yielding q, the
    q-cycles (for q <= track_to, else none) and the pivot rows of the
    (q-1)-boundaries. The pivots of the (q+1)-boundaries are cleared
    from the q elimination: a reduced (q+1)-column with pivot c is a
    cycle whose largest cell is c, so the column of c reduces to zero
    and no other column changes. The cycles yielded are the homology
    representatives."""
    cleared: _Rows = {}
    for q in range(len(levels) - 1, -1, -1):
        cycles, cleared = _eliminate(
            [(c, S.boundary(c)) for c in levels[q] if c not in cleared],
            fld, q <= track_to, {})
        yield q, cycles, cleared


def _check_grades(S: SComplex, grades: Dict[int, Grade],
                  grid: Sequence[Grade], top: int) -> None:
    """Raise GradeError unless the grid and the grades share one arity,
    and OracleError unless each face of a graded cell of dimension up to
    top is graded at or below it, so sublevel sets are face-closed."""
    if not grid:
        return
    n = len(grid[0])
    for g in (*grid, *grades.values()):
        if len(g) != n:
            raise GradeError(f"grades: arity mismatch {len(g)} vs {n}")
    for c, g in grades.items():
        if S.dim(c) > top:
            continue
        for t, _ in S.boundary(c):
            h = grades.get(t)
            if h is None or not all(map(le, h, g)):
                raise OracleError(f"oracle: face {t} of cell {c} is not "
                                  f"graded at or below it")


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


class HomologyRanks:
    """Betti numbers by dimension; torsion coefficients by dimension when
    computed over the integers, else None."""

    def __init__(self, betti: List[int],
                 torsion: Optional[List[List[int]]] = None):
        self.betti = betti
        self.torsion = torsion


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
    by_row: Dict[int, set] = {}  # row -> a superset of the columns holding it
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
            INTEGERS.axpy(other, -other[r] * col[r], col)
            for t in col:
                by_row[t].add(d)
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
    """Homology ranks of the whole complex over its own ring (the
    default) or, for an integer complex, over Q. Field coefficients give
    Betti numbers; integer coefficients also give torsion. For Z/p ranks
    of an integer complex, build it over Z/p."""
    ring = S.ring if ring is None else ring
    fld = S.ring if S.ring.is_field else RATIONALS
    if ring not in (S.ring, fld):
        raise OracleError(
            f"oracle: cannot view {S.ring.name} coefficients in {ring.name}")
    with_torsion = isinstance(ring, Integers)
    top = S.max_dim
    if top < 0:
        return HomologyRanks([], [] if with_torsion else None)
    by_dim = [S.cells_of_dim(q) for q in range(top + 2)]
    # ranks[q] is the rank of the boundary map out of the q-chains
    ranks = [0] * (top + 2)
    for q, _, pivots in _top_down(S, fld, by_dim, -1):
        ranks[q] = len(pivots)
    betti = [len(by_dim[q]) - ranks[q] - ranks[q + 1]
             for q in range(top + 1)]
    torsion = ([_integer_torsion(S, q) for q in range(top + 1)]
               if with_torsion else None)
    return HomologyRanks(betti, torsion)


def _thin(grid: List[Grade], max_grades: Optional[int]) -> List[Grade]:
    if max_grades is None or len(grid) <= max_grades:
        return list(grid)
    if max_grades < 1:
        raise OracleError("oracle: max_grades must be positive")
    if max_grades == 1:
        return [grid[-1]]
    # the steps (n - 1) / (m - 1) exceed 1, so the indices strictly rise
    n, m = len(grid), max_grades
    return [grid[round(i * (n - 1) / (m - 1))] for i in range(m)]


def rank_table(S: SComplex, grades: Dict[int, Grade],
               q_max: Optional[int] = None,
               grid: Optional[Sequence[Grade]] = None
               ) -> Dict[Tuple[int, Grade, Grade], int]:
    """Persistent ranks for every ordered pair of grid grades and every
    dimension up to q_max, over the complex's own field or, for an
    integer complex, Q. The default grid is its distinct entry grades.

    Each grid grade alpha costs one elimination per dimension, from the
    top down with clearing, which gives both its boundaries B_q(alpha)
    and the cycles that complete them to a basis of all cycles, its
    homology representatives. As B_q(alpha) lies in B_q(beta) for
    alpha <= beta, the rank of H_q(alpha) -> H_q(beta) counts the
    representatives of alpha that add a pivot over B_q(beta)."""
    fld = S.ring if S.ring.is_field else RATIONALS
    grid = critical_grades(grades if grid is None else grid)
    q_hi = S.max_dim if q_max is None else q_max
    _check_grades(S, grades, grid, q_hi + 1)
    buckets = _sublevel_buckets(S, grades, grid, q_hi + 1)
    borders: Dict[Tuple[Grade, int], _Rows] = {}
    reps: Dict[Tuple[Grade, int], List[Tuple[int, _Vec]]] = {}
    for alpha in grid:
        # cycles are needed up to q_hi; the level above gives the
        # boundaries of q_hi only
        for q, cycles, pivots in _top_down(S, fld, buckets[alpha], q_hi):
            if q <= q_hi:
                reps[alpha, q] = list(cycles.items())
            if q:
                borders[alpha, q - 1] = pivots
    table: Dict[Tuple[int, Grade, Grade], int] = {}
    for alpha in grid:
        for beta in grid:
            if not all(map(le, alpha, beta)):
                continue
            for q in range(q_hi + 1):
                table[q, alpha, beta] = len(_eliminate(
                    reps[alpha, q], fld, False, borders[beta, q])[1])
    return table


def _grade_text(g: Grade) -> str:
    return ",".join(str(x) for x in g)


class EquivalenceReport:
    """Side-by-side persistent ranks of an original complex and its
    reduction over a shared grade grid; over the integers also the
    torsion of both sublevel complexes at each grid grade, as
    (q, grade, original's, reduction's) where the two differ."""

    def __init__(self, ok: bool, grid: List[Grade],
                 ranks_original: Dict[Tuple[int, Grade, Grade], int],
                 ranks_reduced: Dict[Tuple[int, Grade, Grade], int],
                 mismatches: List[Tuple[int, Grade, Grade]],
                 torsion_mismatches: Sequence[
                     Tuple[int, Grade, List[int], List[int]]] = ()):
        self.ok = ok
        self.grid = grid
        self.ranks_original = ranks_original
        self.ranks_reduced = ranks_reduced
        self.mismatches = mismatches
        self.torsion_mismatches = torsion_mismatches

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
                       q_max: Optional[int] = None,
                       max_grades: Optional[int] = None
                       ) -> EquivalenceReport:
    """Compare persistent ranks of a complex and its reduction on the
    grid of the original's entry grades, and when both are over the
    integers also the torsion of their sublevel complexes at each grid
    grade. Both sides are computed independently from boundary
    matrices. The reduction must be a separate object from the
    original, complex and grades alike: reduce_all works in place, and
    a complex compared with itself would always pass."""
    if reduced is S or grades_r is grades_s:
        raise OracleError("oracle: the reduction is the original itself; "
                          "reduce a copy (S.copy(), dict(grades))")
    grid = _thin(critical_grades(grades_s), max_grades)
    q_hi = max(S.max_dim, reduced.max_dim, 0) if q_max is None else q_max
    t_orig = rank_table(S, grades_s, q_hi, grid)
    t_red = rank_table(reduced, grades_r, q_hi, grid)
    mismatches = [k for k in sorted(t_orig) if t_red.get(k) != t_orig[k]]
    torsion: List[Tuple[int, Grade, List[int], List[int]]] = []
    if isinstance(S.ring, Integers) and isinstance(reduced.ring, Integers):
        torsion = _torsion_mismatches(S, grades_s, reduced, grades_r, grid,
                                      q_hi)
    return EquivalenceReport(not mismatches and not torsion, list(grid),
                             t_orig, t_red, mismatches, torsion)

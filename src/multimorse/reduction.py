"""Elementary reductions of matched pairs and chain homotopy bookkeeping.

Removing a matched pair (sigma, tau), where tau is a primary coface of
sigma with unit incidence, rewrites the remaining coefficients as

    new(eta, xi) = old(eta, xi) - old(eta, sigma) * old(tau, xi) / pivot

with pivot = old(tau, sigma), eta running over the other cofaces of
sigma and xi over the other faces of tau. The result is again a valid
complex. reduce_all applies every pair of a matching to the complex in
place, as Kaczynski, Mrozek & Slusarek's reductions rewrite it, and can
accumulate the composed chain maps: a projection onto the smaller
complex, an inclusion back, and a degree +1 homotopy connecting their
composite to the identity.
"""

from __future__ import annotations

from typing import Dict, Optional, Set

from .complexes import ComplexError, SComplex
from .filtration import Grade
from .matching import MatchPartition
from .rings import CoefficientRing


class ReductionError(ValueError):
    """Raised when a pair cannot be reduced (not incident, or the
    incidence coefficient is not a unit)."""


class ReductionStep:
    """Snapshot of one elementary reduction, taken before removal."""

    def __init__(self, sigma: int, tau: int, pivot: object,
                 tau_faces: Dict[int, object],
                 sigma_cofaces: Dict[int, object]):
        self.sigma = sigma
        self.tau = tau
        self.pivot = pivot
        self.tau_faces = tau_faces
        self.sigma_cofaces = sigma_cofaces


def reduce_pair(S: SComplex, sigma: int, tau: int,
                grades: Optional[Dict[int, Grade]] = None) -> ReductionStep:
    """Remove the pair (sigma, tau) from S in place and rewrite the
    surviving coefficients. tau must be a primary coface of sigma and
    their incidence must be a unit. Grades, when given, lose the two
    removed entries and keep every survivor's grade unchanged."""
    # the adjacency tables are read and rewritten in place; every
    # rewritten entry joins a coface of sigma to a face of tau, one
    # dimension apart, and ring arithmetic keeps it normalized. A new
    # entry is listed in its face's coface row and a zeroed one is not
    # taken out of it (see SComplex).
    faces, cofaces = S._faces, S._cofaces
    if sigma not in S:
        raise ComplexError(f"complex: no cell {sigma}")
    pivot = faces[tau].get(sigma) if tau in S else None
    if pivot is None:
        raise ReductionError(
            f"reduction: {tau} is not a primary coface of {sigma}")
    ring = S.ring
    if not ring.is_unit(pivot):
        raise ReductionError(
            f"reduction: incidence {ring.format(pivot)} of pair "
            f"({sigma}, {tau}) is not a unit in {ring.name}")
    tau_faces = {xi: b for xi, b in faces[tau].items() if xi != sigma}
    sigma_cofaces = S.coboundary(sigma)
    del sigma_cofaces[tau]
    step = ReductionStep(sigma, tau, pivot, tau_faces, sigma_cofaces)
    S.remove_cell(sigma)
    S.remove_cell(tau)
    if grades is not None:
        grades.pop(sigma, None)
        grades.pop(tau, None)
    zero, sub, mul = ring.zero, ring.sub, ring.mul
    for eta, a in sigma_cofaces.items():
        correction = ring.div(a, pivot)
        row = faces[eta]
        for xi, b in tau_faces.items():
            old = row.get(xi)
            value = sub(zero if old is None else old, mul(correction, b))
            if value == zero:
                if old is not None:
                    del row[xi]
            else:
                if old is None:
                    cofaces[xi].append(eta)
                row[xi] = value
    return step


class ComposedMaps:
    """Composites over a whole reduction run. projection and homotopy are
    indexed by original generators, inclusion by surviving ones; the
    homotopy raises degree by one and satisfies
    id - inclusion . projection = boundary . homotopy + homotopy . boundary
    on the original complex."""

    def __init__(self, ring: CoefficientRing,
                 projection: Dict[int, Dict[int, object]],
                 inclusion: Dict[int, Dict[int, object]],
                 homotopy: Dict[int, Dict[int, object]]):
        self.ring = ring
        self.projection = projection
        self.inclusion = inclusion
        self.homotopy = homotopy


def _compose_step(maps: ComposedMaps, rows: Dict[int, Set[int]],
                  step: ReductionStep) -> None:
    """Fold one elementary reduction into the composed maps. rows[x] is
    the set of projection columns whose support contains x, kept for the
    cells still to be removed; only the columns in rows[sigma] and
    rows[tau] change, so the step costs what it writes."""
    ring = maps.ring
    proj, incl, homo = maps.projection, maps.inclusion, maps.homotopy
    sigma, tau, pivot = step.sigma, step.tau, step.pivot
    i_tau = incl.pop(tau)
    # ascending column ids keep the homotopy dict in cell order
    hit = sorted(rows.pop(sigma))
    # homotopy first: it needs the projection columns before this step
    for g in hit:
        target = homo.setdefault(g, {})
        ring.axpy(target, ring.div(proj[g][sigma], pivot), i_tau)
        if not target:
            del homo[g]
    for g in rows.pop(tau):
        proj[g].pop(tau)
    for g in hit:
        col = proj[g]
        c = col.pop(sigma)
        for xi, b in step.tau_faces.items():
            value = ring.sub(col.get(xi, ring.zero),
                             ring.div(ring.mul(c, b), pivot))
            row = rows.get(xi)
            if value == ring.zero:
                col.pop(xi, None)
                if row is not None:
                    row.discard(g)
            else:
                col[xi] = value
                if row is not None:
                    row.add(g)
    for eta, a in step.sigma_cofaces.items():
        ring.axpy(incl[eta], ring.neg(ring.div(a, pivot)), i_tau)
    del incl[sigma]


class ReductionResult:
    """What reduce_all leaves: the complex and grades it was given, now
    reduced, and the composed maps when they were asked for."""

    def __init__(self, complex: SComplex,
                 grades: Optional[Dict[int, Grade]],
                 maps: Optional[ComposedMaps]):
        self.complex = complex
        self.grades = grades
        self.maps = maps


def reduce_all(S: SComplex, matching: MatchPartition,
               grades: Optional[Dict[int, Grade]] = None,
               with_maps: bool = False) -> ReductionResult:
    """Reduce every matched pair of the matching, in the order the
    matching emitted them. The matching is acyclic, so no elimination
    changes the pivot of a pair still to come, and any order gives the
    same result.

    S and grades are reduced in place and returned in the result; a
    caller that still needs the original passes S.copy() and
    dict(grades). The survivors keep their vertex tuples, and so their
    entry grades, but their coefficients are the reduced ones.
    """
    pairs = matching.matched.items()
    maps = None
    if with_maps:
        maps = ComposedMaps(
            S.ring,
            projection={c: {c: S.ring.one} for c in S.cells()},
            inclusion={c: {c: S.ring.one} for c in S.cells()},
            homotopy={},
        )
        # reverse index of the projection, cell -> columns containing
        # it, for the matched cells: no step reads a critical cell's row
        rows: Dict[int, Set[int]] = {c: {c} for pair in pairs for c in pair}
    for sigma, tau in pairs:
        step = reduce_pair(S, sigma, tau, grades)
        if maps is not None:
            _compose_step(maps, rows, step)
    return ReductionResult(S, grades, maps)

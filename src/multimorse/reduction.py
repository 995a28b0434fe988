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
composite to the identity, in closed form: in partition's order every
face of tau but sigma is critical when (sigma, tau) goes.

The matching sees only what the vertex lower links show, and leaves
pairs of equal entry grade joined by a unit (the local pairs of
Fugacci & Kerber, "Chunk reduction for multi-parameter persistent
homology", 2019). cancel_local_pairs reduces those too, with
reduce_pair and no maps.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from .complexes import ComplexError, SComplex
from .filtration import Grade
from .matching import MatchPartition
from .rings import CoefficientRing


class ReductionError(ValueError):
    """Raised when a pair cannot be reduced (not incident, or the
    incidence coefficient is not a unit), or when maps are asked for
    and the pairs come out of partition's order."""


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


def _compose_step(maps: ComposedMaps, step: ReductionStep) -> None:
    """Fold one elementary reduction into the composed maps, in closed
    form: sigma and tau lie in no projection column but their own, which
    reduce_all checks, so only their columns and the inclusion change."""
    ring = maps.ring
    incl = maps.inclusion
    sigma, tau, pivot = step.sigma, step.tau, step.pivot
    i_tau = incl.pop(tau)
    maps.homotopy[sigma] = {x: ring.div(v, pivot) for x, v in i_tau.items()}
    maps.projection[sigma] = {xi: ring.neg(ring.div(b, pivot))
                              for xi, b in step.tau_faces.items()}
    maps.projection[tau] = {}
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
    changes the pivot of a pair still to come, and any order reaches the
    same complex; only partition's order gives the maps.

    S and grades are reduced in place and returned in the result; a
    caller that still needs the original passes S.copy() and
    dict(grades). The survivors keep their vertex tuples, and so their
    entry grades, but their coefficients are the reduced ones.

    With maps, a step whose tau has a face other than sigma in a pair
    still to come raises ReductionError and leaves S partly reduced. By
    induction, sigma and tau then lie in no projection column but their
    own, as _compose_step needs. partition's order passes when its
    indexing is valid (admitting u below v implies a smaller index): the
    face w0 of (v, v.w0) and the face rb of a pair (v.ra, v.rb) coned
    from v's lower link have apexes below v, so were settled in earlier
    vertex blocks; any other face v.r' of v.rb is v.w0, removed first,
    or by induction on the link is critical or settled earlier; and a
    rewrite adds only faces of a removed tau, critical by the same step.
    """
    pairs = matching.matched.items()
    maps = pending = None
    if with_maps:
        maps = ComposedMaps(
            S.ring,
            projection={c: {c: S.ring.one} for c in S.cells()},
            inclusion={c: {c: S.ring.one} for c in S.cells()},
            homotopy={},
        )
        # the cells of the pairs not yet reduced
        pending = {c for pair in pairs for c in pair}
    for sigma, tau in pairs:
        step = reduce_pair(S, sigma, tau, grades)
        if maps is not None:
            pending.discard(sigma)
            pending.discard(tau)
            if not pending.isdisjoint(step.tau_faces):
                raise ReductionError(
                    f"reduction: a face of {tau} is in a later pair")
            _compose_step(maps, step)
    return ReductionResult(S, grades, maps)


def cancel_local_pairs(S: SComplex, grades: Dict[int, Grade]
                       ) -> List[Tuple[int, int]]:
    """Reduce, in place, every pair of cells of equal entry grade joined
    by a unit incidence, and return the pairs in reduction order.

    Each sweep visits the cells in id order and reduces a surviving
    sigma against its first coface, in coboundary order, of the same
    grade and unit incidence; sweeps repeat until one reduces nothing.
    An equal-grade pair restricts to every sublevel complex, so each
    reduction keeps the filtered homotopy type (Mischaikow & Nanda,
    "Morse theory for filtrations and efficient computation of
    persistent homology", 2013). Over a field every nonzero incidence
    is a unit, so no two cells of equal grade stay incident and the
    complex ends at the minimal size, n - 2 * sum over grades g of the
    rank of the boundary restricted to grade g. Over z only +-1
    pivots qualify."""
    is_unit = S.ring.is_unit
    pairs: List[Tuple[int, int]] = []
    reduced = True
    while reduced:
        reduced = False
        for sigma in S.cells():
            if sigma not in S:
                continue    # the tau of a pair reduced in this sweep
            g = grades[sigma]
            for tau, a in S.coboundary(sigma).items():
                if grades[tau] == g and is_unit(a):
                    reduce_pair(S, sigma, tau, grades)
                    pairs.append((sigma, tau))
                    reduced = True
                    break
    return pairs

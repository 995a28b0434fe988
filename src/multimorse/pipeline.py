"""End-to-end drivers shared by the command-line interface.

run() executes one command on the settings cli.build_parser gives it
and returns the exit status: 0 success, 1 input or configuration error
(raised, mapped by the CLI), 2 failed verification. reduce and verify
share _reduce, so verify certifies what reduce writes.
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import chain
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

from .complexes import SComplex, build_simplicial, complex_from_closure, \
    simplicial_closure
from .filtration import Grade, MeasuringFunction, entry_grades
from .indexing import build_dag, lex_indexing, topo_sort_kahn
from .matching import MatchPartition, is_acyclic, modified_hasse, partition
from .meshio import preset_abs_xy, read_mesh, read_values, write_reduced
from .oracle import verify_equivalence
from .reduction import cancel_local_pairs, reduce_all
from .rings import CoefficientRing, get_ring

if TYPE_CHECKING:
    from argparse import Namespace

# grade-pair grids are thinned to this many grades in CLI verification;
# mesh coordinates make nearly every cell grade distinct, and the oracle
# is cubic in cells per grade pair
VERIFY_GRID_LIMIT = 10
SAMPLE_COUNT = 20
SAMPLE_CELL_LIMIT = 800
Cell = Tuple[int, ...]  # a cell's sorted vertex tuple


class PipelineError(ValueError):
    """Raised for bad run configurations."""


def _table(rows: List[Tuple[str, ...]]) -> str:
    """Right-aligned columns, two spaces apart."""
    widths = [max(map(len, col)) for col in zip(*rows)]
    return "\n".join(
        "  ".join(col.rjust(w) for col, w in zip(row, widths))
        for row in rows)


def dim_counts(S: SComplex) -> List[int]:
    """Cells of each dimension, 0 to S.max_dim, in one pass over the
    complex's dimension table."""
    tally = Counter(S._dims)
    del tally[None]     # the ids that hold no cell
    return [tally[q] for q in range(max(tally, default=-1) + 1)]


def stats_table(counts: List[int], kept: List[int]) -> str:
    """Per-dimension cell counts of a complex and of its reduction, as
    two dim_counts lists, with percentages kept (one decimal) and a
    totals row."""

    def pct(c: int, s: int) -> str:
        return f"{(100.0 * c / s if s else 0.0):.1f}"

    rows = [("q", "#S", "#C", "%")]
    # a reduction removes cells only, so it has no dimension S lacks
    kept = kept + [0] * (len(counts) - len(kept))
    for q, (ns, nc) in enumerate(zip(counts, kept)):
        rows.append((str(q), str(ns), str(nc), pct(nc, ns)))
    rows.append(("total", str(sum(counts)), str(sum(kept)),
                 pct(sum(kept), sum(counts))))
    return _table(rows)


def match_table(S: SComplex, P: MatchPartition) -> str:
    """Per-dimension sizes of the matched and critical sets."""
    counts = [Counter(map(S.dim, cells))
              for cells in (P.matched, P.matched.values(), P.critical)]
    rows = [("q", "#A", "#B", "#C")]
    for q in range(S.max_dim + 1):
        rows.append((str(q),) + tuple(str(n[q]) for n in counts))
    rows.append(("total",) + tuple(str(sum(n.values())) for n in counts))
    return _table(rows)


def star_index(cells: Iterable[Cell]) -> Dict[int, List[Cell]]:
    """Each vertex of a face-closed collection of vertex tuples, mapped
    to the cells of dimension 1 and up that hold it. Built once, in
    O(cells), for every ball that sample_star_submeshes grows."""
    star: Dict[int, List[Cell]] = {}
    for w in cells:
        if len(w) == 1:
            star.setdefault(w[0], [])
        else:
            for v in w:
                star.setdefault(v, []).append(w)
    return star


def _ball(star: Dict[int, List[Cell]], center: int,
          cell_limit: int) -> Set[Cell]:
    """Grow a vertex ball around center ring by ring, stopping before
    the induced subcomplex would exceed cell_limit cells; the center
    alone is kept whatever the limit.

    A ring's vertices are those of the frontier's cells (of its edges,
    as the cells are face-closed), and it adds its vertices and their
    cells that lie in the grown ball. A ring is rejected whole as soon
    as its cells overflow the limit. The result is the cells of the
    full subcomplex on the final ball, at a cost set by the ball and
    not by the mesh."""
    inside, frontier = {center}, {center}
    kept = {(center,)}
    while frontier:
        ring_verts = {u for v in frontier for w in star[v] for u in w}
        ring_verts -= inside
        grown = inside | ring_verts
        new = set()
        for v in ring_verts:
            new.add((v,))
            new.update(w for w in star[v] if grown.issuperset(w))
            if len(kept) + len(new) > cell_limit:
                return kept     # the ring overflows and is rejected whole
        inside, frontier = grown, ring_verts
        kept |= new
    return kept


def sample_star_submeshes(star: Dict[int, List[Cell]], count: int,
                          cell_limit: int, seed: int
                          ) -> List[Tuple[int, Set[Cell]]]:
    """Seeded sample of vertex-star neighborhoods from a star_index, one
    per drawn center: a face-closed set of at most cell_limit vertex
    tuples."""
    rng = random.Random(seed)
    vids = sorted(star)
    out: List[Tuple[int, Set[Cell]]] = []
    seen = set()
    while len(out) < count and len(seen) < len(vids):
        center = rng.choice(vids)
        if center in seen:
            continue
        seen.add(center)
        out.append((center, _ball(star, center, cell_limit)))
    return out


def _reduce(S: SComplex, f: MeasuringFunction, index: List[int],
            variant: str) -> Dict[int, Grade]:
    """Reduce S in place: the matched pairs, then the equal-grade pairs
    the matching leaves. Returns the survivors' grades."""
    reduce_all(S, partition(S, f, index, variant))
    # a survivor keeps its vertex tuple, and so its entry grade
    grades = entry_grades(S, f)
    cancel_local_pairs(S, grades)
    return grades


def run_verification(closure: List[Set[Cell]], ring: CoefficientRing,
                     f: MeasuringFunction, index: List[int],
                     config: Namespace) -> int:
    """Certify the reduction pipeline on the complex of a closure (as
    simplicial_closure gives it): whole when it has at most max_cells
    cells, else on sampled vertex-star submeshes, building only the one
    being certified (a valid indexing for f restricts to one for every
    submesh). Prints the report; returns 0 on PASS, 2 on a mismatch."""

    def certify(cells: Iterable[Cell]):
        T = complex_from_closure(cells, ring)
        C = T.copy()    # the oracle reads the original beside the reduction
        return verify_equivalence(T, entry_grades(T, f), C,
                                  _reduce(C, f, index, config.variant),
                                  q_max=config.q_max,
                                  max_grades=VERIFY_GRID_LIMIT)

    if sum(map(len, closure)) <= config.max_cells:
        report = certify(chain.from_iterable(closure))
        print(*report.lines(), report.summary(), sep="\n")
        return 0 if report.ok else 2
    cell_limit = min(config.max_cells, SAMPLE_CELL_LIMIT)
    star = star_index(chain.from_iterable(closure))
    samples = sample_star_submeshes(star, SAMPLE_COUNT, cell_limit,
                                    config.seed)
    all_ok = True
    for i, (center, cells) in enumerate(samples):
        report = certify(cells)
        all_ok = all_ok and report.ok
        print(f"SAMPLE {i} center={center} cells={len(cells)} "
              f"{report.summary()}")
    print(f"PASS samples={len(samples)}" if all_ok
          else f"FAIL samples={len(samples)}")
    return 0 if all_ok else 2


def run(config: Namespace) -> int:
    """Execute one pipeline command, given the settings that
    cli.build_parser parses for it; returns the process exit status."""
    if config.command == "verify":
        if config.max_cells < 0:
            raise PipelineError("run: --max-cells must be >= 0")
        if config.q_max is not None and config.q_max < 0:
            raise PipelineError("run: --qmax must be >= 0")
    if config.command in ("match", "reduce", "verify"):
        ring = get_ring(config.ring_name)
    mesh = read_mesh(config.mesh_path)

    if config.command == "stats":
        counts = [len(level) for level in
                  simplicial_closure(len(mesh.vertices), mesh.faces)]
        print(stats_table(counts, counts))
        return 0

    if config.values_path:
        f = read_values(config.values_path)
        if len(f) != len(mesh.vertices):
            raise PipelineError(
                f"run: {len(f)} value lines for {len(mesh.vertices)} vertices")
    else:
        f = preset_abs_xy(mesh)
    # the coordinates were read for the grades alone
    vertex_count, faces = len(mesh.vertices), mesh.faces
    del mesh
    index = (topo_sort_kahn(build_dag(f)) if config.indexing == "kahn"
             else lex_indexing(f))

    if config.command == "sort":
        for v in sorted(range(len(f)), key=index.__getitem__):
            text = " ".join(str(x) for x in f[v])
            print(f"{index[v]} {v} {text}")
        return 0

    if config.command == "verify":
        closure = simplicial_closure(vertex_count, faces)
        del faces   # the closure holds its own
        top = len(closure) - 1
        if config.q_max is not None and config.q_max > top:
            # no homology lives above the top dimension
            raise PipelineError(f"run: --qmax {config.q_max} is above the "
                                f"complex's top dimension {top}")
        return run_verification(closure, ring, f, index, config)
    S = build_simplicial(vertex_count, faces, ring)
    del faces   # the complex holds its own

    if config.command == "match":
        P = partition(S, f, index, config.variant)
        print(match_table(S, P))
        acyclic = is_acyclic(modified_hasse(S, P.matched))
        print(f"acyclic {'yes' if acyclic else 'NO'}")
        return 0 if acyclic else 2

    counts = dim_counts(S)
    grades = _reduce(S, f, index, config.variant)
    print(stats_table(counts, dim_counts(S)))
    if config.out:
        write_reduced(config.out, S, grades, f.k)
    return 0

"""End-to-end drivers shared by the command-line interface.

run() executes one of the five pipeline commands (sort, match, reduce,
verify, stats) on the settings cli.build_parser defines and returns a
process exit status: 0 for success, 1 for input or configuration errors
(raised as exceptions, mapped by the CLI), 2 for a failed verification.
reduce and verify remove the matched pairs, then cancel the equal-grade
pairs the matching leaves (reduction.cancel_local_pairs), so verify
certifies what reduce writes; match prints the matching alone.
Complexes small enough for the oracle are certified whole; larger ones
are certified on seeded vertex-star submeshes.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import TYPE_CHECKING, Dict, List, Tuple

from .complexes import SComplex, build_simplicial, complex_from_closure, \
    simplicial_closure
from .filtration import MeasuringFunction, entry_grades
from .indexing import build_dag, lex_indexing, topo_sort_kahn
from .matching import MatchPartition, is_acyclic, modified_hasse, partition
from .meshio import preset_abs_xy, read_mesh, read_values, write_reduced
from .oracle import verify_equivalence
from .reduction import cancel_local_pairs, reduce_all
from .rings import get_ring

if TYPE_CHECKING:
    from argparse import Namespace

# grade-pair grids are thinned to this many grades in CLI verification;
# mesh coordinates make nearly every cell grade distinct, and the oracle
# is cubic in cells per grade pair
VERIFY_GRID_LIMIT = 10
SAMPLE_COUNT = 20
SAMPLE_CELL_LIMIT = 800


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


def stats_table(counts: List[int], C: SComplex) -> str:
    """Per-dimension cell counts of a complex, given as its dim_counts,
    and of its reduction C, with percentages kept (one decimal) and a
    totals row. The counts are taken before reduce_all rewrites the
    complex in place."""
    return _counts_table(counts, dim_counts(C))


def _counts_table(counts: List[int], kept: List[int]) -> str:
    """stats_table from two dim_counts lists."""

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


def _ball_submesh(S: SComplex, points: Dict[int, int], center: int,
                  cell_limit: int) -> SComplex:
    """Grow a vertex ball around center ring by ring, stopping before
    the induced subcomplex would exceed cell_limit cells; the center
    alone is kept whatever the limit.

    Each ring's vertices are read from the edges of the frontier, and
    the ring adds only the cells that have a vertex in it: the ring's
    vertices and those of their cofaces whose vertices all lie in the
    grown ball. A ring stops as soon as its cells overflow the limit,
    since it is rejected whole. The kept cells are face-closed, and
    the result equals full_subcomplex(S, ball) for the final ball, at a
    cost set by the ball and not by S. points maps each vertex of S to
    the id of its cell."""
    verts = S.verts
    inside = {center}
    frontier = {center}
    kept = {(center,)}
    while frontier:
        ring_verts = set()
        for v in frontier:
            for e in S.coboundary(points[v]):
                ring_verts.update(verts[e])
        ring_verts -= inside
        if not ring_verts:
            break
        grown = inside | ring_verts
        new = set()
        room = cell_limit - len(kept)
        for v in ring_verts:
            new.add((v,))
            # the cofaces of v inside the grown ball; a cell outside it
            # has no coface inside, and a cell found before has had its
            # cofaces visited
            stack = [points[v]]
            while stack:
                for c in S.coboundary(stack.pop()):
                    w = verts[c]
                    if w not in new and grown.issuperset(w):
                        new.add(w)
                        stack.append(c)
            if len(new) > room:
                break
        if len(new) > room:
            break   # the ring overflows and is rejected whole
        inside = grown
        frontier = ring_verts
        kept |= new
    cells = sorted(kept)
    cells.sort(key=len)     # stable: (dimension, vertices) order
    return complex_from_closure(cells, S.ring)


def sample_star_submeshes(S: SComplex, count: int, cell_limit: int,
                          seed: int) -> List[Tuple[int, SComplex]]:
    """Seeded sample of vertex-star neighborhoods, one per drawn center,
    each at most cell_limit cells."""
    bare = S.cell_without_verts()
    if bare is not None:
        raise PipelineError(f"sample: cell {bare} has no vertex tuple")
    rng = random.Random(seed)
    # one map for every ball: building it costs O(cells)
    points = {w[0]: c for c, w in enumerate(S.verts)
              if w is not None and len(w) == 1}
    vids = sorted(points)
    out: List[Tuple[int, SComplex]] = []
    seen = set()
    while len(out) < count and len(seen) < len(vids):
        center = rng.choice(vids)
        if center in seen:
            continue
        seen.add(center)
        out.append((center, _ball_submesh(S, points, center, cell_limit)))
    return out


def _verify_one(S: SComplex, f: MeasuringFunction,
                index: List[int], config: Namespace):
    grades = entry_grades(S, f)
    P = partition(S, f, index, config.variant)
    # the oracle reads the original beside the reduction
    result = reduce_all(S.copy(), P, grades=dict(grades))
    cancel_local_pairs(result.complex, result.grades)
    return verify_equivalence(S, grades, result.complex, result.grades,
                              q_max=config.q_max,
                              max_grades=VERIFY_GRID_LIMIT)


def run_verification(S: SComplex, f: MeasuringFunction,
                     index: List[int], config: Namespace) -> int:
    """Certify the reduction pipeline on S: whole-complex when it fits
    under the cell cap, else on sampled vertex-star submeshes (a valid
    indexing for f restricts to one for every submesh). Prints the
    report; returns 0 on PASS, 2 on any mismatch."""
    if len(S) <= config.max_cells:
        report = _verify_one(S, f, index, config)
        for line in report.lines():
            print(line)
        print(report.summary())
        return 0 if report.ok else 2
    cell_limit = min(config.max_cells, SAMPLE_CELL_LIMIT)
    samples = sample_star_submeshes(S, SAMPLE_COUNT, cell_limit, config.seed)
    all_ok = True
    for i, (center, sub) in enumerate(samples):
        report = _verify_one(sub, f, index, config)
        all_ok = all_ok and report.ok
        print(f"SAMPLE {i} center={center} cells={len(sub)} "
              f"{report.summary()}")
    print(f"PASS samples={len(samples)}" if all_ok
          else f"FAIL samples={len(samples)}")
    return 0 if all_ok else 2


def run(config: Namespace) -> int:
    """Execute one pipeline command, given the settings that
    cli.build_parser parses; returns the process exit status."""
    if config.max_cells < 0:
        raise PipelineError("run: --max-cells must be >= 0")
    if config.q_max is not None and config.q_max < 0:
        raise PipelineError("run: --qmax must be >= 0")
    ring = get_ring(config.ring_name)
    mesh = read_mesh(config.mesh_path)

    if config.command == "stats":
        counts = [len(level) for level in
                  simplicial_closure(len(mesh.vertices), mesh.faces)]
        print(_counts_table(counts, counts))
        return 0

    if config.values_path:
        f = read_values(config.values_path)
        if len(f) != len(mesh.vertices):
            raise PipelineError(
                f"run: {len(f)} value lines for {len(mesh.vertices)} vertices")
    elif not mesh.vertices:
        # the preset has no grades to give, so every output is empty
        S = SComplex(ring)
        if config.command == "match":
            print(match_table(S, MatchPartition({}, set())))
        elif config.command == "verify":
            print("PASS checked=0 grades=0")
        elif config.command == "reduce":
            print(stats_table(dim_counts(S), S))
            if config.out:
                write_reduced(config.out, S, {}, 2)  # abs-xy grades: k = 2
        return 0
    else:
        f = preset_abs_xy(mesh)
    # the coordinates were read for the grades alone
    vertex_count, faces = len(mesh.vertices), mesh.faces
    del mesh
    if config.indexing == "kahn":
        index = topo_sort_kahn(build_dag(f))
    else:
        index = lex_indexing(f)

    if config.command == "sort":
        for v in sorted(range(len(f)), key=index.__getitem__):
            text = " ".join(str(x) for x in f[v])
            print(f"{index[v]} {v} {text}")
        return 0

    S = build_simplicial(vertex_count, faces, ring)
    del faces   # the complex holds its own
    if config.command == "verify":
        if config.q_max is not None and config.q_max > S.max_dim:
            # no homology lives above the top dimension
            raise PipelineError(f"run: --qmax {config.q_max} is above the "
                                f"complex's top dimension {S.max_dim}")
        return run_verification(S, f, index, config)

    P = partition(S, f, index, config.variant)

    if config.command == "match":
        print(match_table(S, P))
        acyclic = is_acyclic(modified_hasse(S, P.matched))
        print(f"acyclic {'yes' if acyclic else 'NO'}")
        return 0 if acyclic else 2

    counts = dim_counts(S)
    C = reduce_all(S, P).complex
    del P   # read by nothing below
    # a survivor keeps its vertex tuple, and so its entry grade
    grades = entry_grades(C, f)
    cancel_local_pairs(C, grades)
    print(stats_table(counts, C))
    if config.out:
        write_reduced(config.out, C, grades, f.k)
    return 0

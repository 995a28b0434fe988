"""The maps-ties workload: one library run, following the README.

    python3 perfbench/lib_run.py MESH VALUES OUT

Reads a mesh and a values file, orders the vertices with Kahn's algorithm
on the comparability DAG, builds the weak-variant matching over the
integers, and reduces with composed chain maps. It writes the reduced
complex to OUT and checks that projection after inclusion is the
identity on every surviving cell; the last stdout line is
`PI_IOTA ok survivors=<n> map_nnz=<m>` or `PI_IOTA FAIL ...` (exit 2).

The module is imported by the tracer, which runs `run()` with the
library's public functions wrapped, so traced and untraced runs execute
the same calls.
"""

from __future__ import annotations

import sys
from typing import Dict, Tuple


def map_nnz(maps) -> int:
    """Nonzero entries over the projection, inclusion and homotopy columns."""
    return sum(len(col) for part in (maps.projection, maps.inclusion,
                                     maps.homotopy)
               for col in part.values())


def pi_iota_defects(maps, survivors) -> int:
    """Surviving cells c with projection(inclusion(c)) != c."""
    ring = maps.ring
    bad = 0
    for c in survivors:
        acc: Dict[int, object] = {}
        for g, a in maps.inclusion[c].items():
            for h, b in maps.projection[g].items():
                v = ring.add(acc.get(h, ring.zero), ring.mul(a, b))
                if v == ring.zero:
                    acc.pop(h, None)
                else:
                    acc[h] = v
        if acc != {c: ring.one}:
            bad += 1
    return bad


def run(mesh_path: str, values_path: str, out_path: str) -> Tuple[int, str]:
    import multimorse as mm

    mesh = mm.read_mesh(mesh_path)
    S = mm.mesh_complex(mesh, mm.INTEGERS)
    f = mm.read_values(values_path)
    index = mm.topo_sort_kahn(mm.build_dag(f))
    P = mm.partition(S, f, index, variant="weak")
    grades = mm.entry_grades(S, f)
    result = mm.reduce_all(S, P, grades=grades, with_maps=True)
    mm.write_reduced(out_path, result.complex, result.grades, f.k)
    survivors = result.complex.cells()
    bad = pi_iota_defects(result.maps, survivors)
    line = (f"PI_IOTA {'ok' if not bad else 'FAIL'} "
            f"survivors={len(survivors)} map_nnz={map_nnz(result.maps)}")
    return (0 if not bad else 2), line


def main(argv) -> int:
    if len(argv) != 3:
        print("usage: lib_run.py MESH VALUES OUT", file=sys.stderr)
        return 1
    status, line = run(*argv)
    print(line)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Untimed output check: read a reduced complex back in its own process.

    python3 perfbench/check.py FILE RING [betti]

Reads FILE, as written by `multimorse reduce --out` or lib_run.py, through
`read_reduced` (which runs `validate()`) over RING (`z2`, `z`, ...), and
prints one JSON line: the cells per dimension and, with `betti`, the
Betti numbers over `q`. Field homology is used, not homology over `z`,
whose Smith-form path does not scale to these sizes (see NOTES.md).

run.py starts this as a child so that the benchmark process itself never
loads the program or a reduced complex: a child's peak RSS, as wait4
reports it, is never below the peak RSS of the process that started it.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    if len(argv) not in (2, 3) or argv[2:] not in ([], ["betti"]):
        print("usage: check.py FILE RING [betti]", file=sys.stderr)
        return 1
    import multimorse as mm
    C, _ = mm.read_reduced(argv[0], mm.get_ring(argv[1]))
    result = {"cells": [len(C.cells_of_dim(q)) for q in range(C.max_dim + 1)]}
    if argv[2:]:
        result["betti"] = mm.homology(C, mm.RATIONALS).betti
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""Command-line interface.

Subcommands: sort (print the vertex indexing), match (build and
summarize the acyclic matching), reduce (remove matched pairs, print the
stats table, optionally write the reduced complex), verify (certify
persistence preservation with the homology oracle), stats (input cell
counts). Exit status: 0 success, 1 input/configuration error, 2 failed
verification.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .pipeline import run

_COMMAND_HELP = {
    "sort": "print vertices in indexing order",
    "match": "build the acyclic matching and print per-dimension counts",
    "reduce": "reduce to critical cells and print the stats table",
    "verify": "reduce and certify persistent ranks against the oracle",
    "stats": "print input cell counts",
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("mesh_path", metavar="mesh",
                        help="input mesh file (.off or .obj)")
    common.add_argument("--values", dest="values_path", metavar="FILE",
                        default=None,
                        help="per-vertex grades file, one line per vertex "
                             "(default: grades (|x|, |y|) from coordinates)")
    common.add_argument("--variant", choices=["strict", "weak"],
                        default="strict", help="lower-link variant")
    common.add_argument("--indexing", choices=["lex", "kahn"], default="lex",
                        help="vertex indexing construction")
    common.add_argument("--ring", dest="ring_name", default="z2",
                        metavar="RING",
                        help="coefficient ring: z2, q, z, or zp "
                             "(default %(default)s)")
    common.add_argument("--qmax", dest="q_max", type=int, default=None,
                        metavar="Q",
                        help="top homology dimension to certify")
    common.add_argument("--max-cells", type=int, default=2000, metavar="N",
                        help="cell cap for whole-complex certification "
                             "(default %(default)s)")
    common.add_argument("--seed", type=int, default=0,
                        help="seed for submesh sampling "
                             "(default %(default)s)")
    common.add_argument("--out", metavar="FILE", default=None,
                        help="write the reduced complex here")

    parser = argparse.ArgumentParser(
        prog="multimorse",
        description="Reduce multifiltered simplicial complexes to their "
                    "critical cells, preserving multidimensional "
                    "persistent homology.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMAND_HELP.items():
        sub.add_parser(name, parents=[common], help=text)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except ValueError as e:
        print(f"multimorse: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"multimorse: io: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

"""Command-line interface to pipeline.run: five commands, each taking
only the flags its branch of run reads (_COMMANDS). Exit status: 0
success, 1 input/configuration error, 2 failed verification.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .pipeline import run

# flag -> its add_argument keywords
_FLAGS = {
    "--values": dict(dest="values_path", metavar="FILE",
                     help="per-vertex grades file, one line per vertex "
                          "(default: grades (|x|, |y|) from coordinates)"),
    "--variant": dict(choices=["strict", "weak"], default="strict",
                      help="lower-link variant"),
    "--indexing": dict(choices=["lex", "kahn"], default="lex",
                       help="vertex indexing construction"),
    "--ring": dict(dest="ring_name", default="z2", metavar="RING",
                   help="coefficient ring: z2, q, z, or zp "
                        "(default %(default)s)"),
    "--qmax": dict(dest="q_max", type=int, metavar="Q",
                   help="top homology dimension to certify"),
    "--max-cells": dict(type=int, default=2000, metavar="N",
                        help="cell cap for whole-complex certification "
                             "(default %(default)s)"),
    "--seed": dict(type=int, default=0,
                   help="seed for submesh sampling (default %(default)s)"),
    "--out": dict(metavar="FILE", help="write the reduced complex here"),
}

# command -> (help, the flags its branch of pipeline.run reads); any
# other flag is a usage error
_COMMANDS = {
    "sort": ("print vertices in indexing order", ("--values", "--indexing")),
    "match": ("build the acyclic matching and print per-dimension counts",
              ("--values", "--variant", "--indexing", "--ring")),
    "reduce": ("remove the matched pairs, then the equal-grade pairs the "
               "matching leaves, and print the stats table",
               ("--values", "--variant", "--indexing", "--ring", "--out")),
    "verify": ("reduce and certify persistent ranks against the oracle",
               ("--values", "--variant", "--indexing", "--ring", "--qmax",
                "--max-cells", "--seed")),
    "stats": ("print input cell counts", ()),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multimorse",
        description="Reduce multifiltered simplicial complexes to their "
                    "critical cells, preserving multidimensional "
                    "persistent homology.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, flags) in _COMMANDS.items():
        command = sub.add_parser(name, help=text)
        command.add_argument("mesh_path", metavar="mesh",
                             help="input mesh file (.off or .obj)")
        for flag in flags:
            command.add_argument(flag, **_FLAGS[flag])
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

"""Traced run of one workload: spans around the library's public calls.

    python3 perfbench/tracer.py SPANS_JSON cli ARG...
    python3 perfbench/tracer.py SPANS_JSON lib MESH VALUES OUT

`cli` runs `multimorse.cli.main(ARG...)`; `lib` runs the maps-ties
library flow of lib_run.py. Before running, every binding of the public
functions in LAYERS, in every loaded `multimorse` module (the package
re-exports included), is replaced by a wrapper that records a span
(name, start, end, parent) and the counts below. Nothing in the package
itself is changed, and the program's stdout and written files are the
same as in an untraced run. Spans and counts are written to SPANS_JSON
when the run ends; the exit status is the program's.
"""

from __future__ import annotations

import json
import os
import sys
import time

import lib_run

T0 = time.perf_counter()

# layer -> public functions whose calls are timed
LAYERS = {
    "cli": ["main"],
    "pipeline": ["run", "run_verification", "sample_star_submeshes"],
    "meshio": ["read_mesh", "read_values", "preset_abs_xy", "mesh_complex",
               "write_reduced"],
    "complexes": ["build_simplicial", "full_subcomplex"],
    "filtration": ["entry_grades"],
    "indexing": ["lex_indexing", "build_dag", "topo_sort_kahn"],
    "matching": ["partition"],
    "reduction": ["reduce_all"],
    "oracle": ["verify_equivalence"],
}


class Tracer:
    """In-memory spans and counters, written out once at the end."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = {}

    def add(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def span(self, name: str, start: float, end: float) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, start - T0, end - T0, parent])

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            idx = len(self.spans)
            parent = self.stack[-1] if self.stack else -1
            self.spans.append([name, time.perf_counter() - T0, None, parent])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter() - T0
            self.count(name, result, args)
            return result
        traced.__wrapped__ = fn
        return traced

    def count(self, name: str, result, args) -> None:
        """Work counters, taken after the span has closed."""
        if name == "complexes.build_simplicial" \
                and "complexes.cells_in" not in self.counts:
            self.add("complexes.cells_in", len(result))
        elif name == "meshio.write_reduced":
            self.add("meshio.bytes_written", os.path.getsize(args[0]))
        elif name == "filtration.entry_grades":
            self.add("filtration.distinct_grades", len(set(result.values())))
        elif name == "indexing.build_dag":
            self.add("indexing.dag_edges", result.edge_count)
        elif name == "matching.partition":
            self.add("matching.pairs", len(result.matched))
            self.add("matching.critical", len(result.critical))
        elif name == "reduction.reduce_all":
            self.add("reduction.cells_kept", len(result.complex))
            if result.maps is not None:
                self.add("reduction.map_nnz", lib_run.map_nnz(result.maps))
        elif name == "pipeline.sample_star_submeshes":
            self.add("pipeline.samples", len(result))
            self.add("pipeline.sample_cells", sum(len(s) for _, s in result))
        elif name == "oracle.verify_equivalence":
            self.add("oracle.rank_entries", len(result.ranks_original))
            self.add("oracle.grades_checked", len(result.grid))

    def install(self) -> None:
        """Rebind every reference to a traced function in the package."""
        loaded = [m for n, m in list(sys.modules.items())
                  if n == "multimorse" or n.startswith("multimorse.")]
        for layer, names in LAYERS.items():
            module = sys.modules.get(f"multimorse.{layer}")
            if module is None:      # the library run never loads the CLI
                continue
            for fname in names:
                original = getattr(module, fname)
                traced = self.wrap(f"{layer}.{fname}", original)
                for m in loaded:
                    for attr, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, attr, traced)


def main(argv) -> int:
    if len(argv) < 2 or argv[1] not in ("cli", "lib"):
        print("usage: tracer.py SPANS_JSON cli|lib ARG...", file=sys.stderr)
        return 1
    out_path, mode, rest = argv[0], argv[1], argv[2:]
    tracer = Tracer()
    start = time.perf_counter()
    if mode == "cli":
        import multimorse.cli
    else:
        import multimorse  # noqa: F401
    tracer.span("cli.import", start, time.perf_counter())
    tracer.install()
    if mode == "cli":
        status = multimorse.cli.main(rest)
    else:
        status, line = lib_run.run(*rest)
        print(line)
    sys.stdout.flush()
    with open(out_path, "w", encoding="ascii") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "end": time.perf_counter() - T0}, fh)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

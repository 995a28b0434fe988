"""Benchmark for multimorse: one workload, one seed, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
`src/`; nothing needs installing). Set-up generates the workload's
inputs from the seed into `perfbench/out/` and, untraced, times
`multimorse stats` on the input several times (`setup_s`). The measured
phase then starts one fresh child process at a time, waits for it, and
starts the next until S seconds have passed (at least MIN_RUNS runs):
one client, no concurrency. Runs alternate between the usable CPUs, and
a fixed calibration loop, timed in this process on the same CPU just
before every child, is logged next to each run so that a slow spell of
the host shows. Times are medians; quartiles and counts are printed
above the JSON line. Every run's output is checked; see NOTES.md for
the checks and the metric definitions.

--trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
runs with runs under tracer.py, which times the calls into each module's
public functions, and reports the per-layer metrics; the traced outputs
must equal the untraced ones byte for byte.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. The exit status is 0 when every output
check passed, 1 when one failed, 2 when the program cannot be found.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

MIN_RUNS = 3
SETUP_RUNS = (3, 20)         # at least 3 stats runs, more while cheap
SETUP_SECONDS = 4.0
SAMPLE_COUNT = 20            # samples `multimorse verify` draws
VERIFY_MAX_CELLS = 400       # `verify --max-cells`: cells per sample
DEADLINE_S = 170             # every child is killed past this point
CPUS = sorted(os.sched_getaffinity(0))

# name -> (input kind, mesh levels or torus size); cell counts per
# dimension are recorded in BENCHMARK.json
WORKLOADS = {
    "reduce-distinct": ("sphere", 5),
    "verify-sampled": ("sphere", 4),
    "maps-ties": ("torus", 24),
}
VALUE_LEVELS = 4             # maps-ties grades lie on a 4x4 integer grid

TIME_METRICS = {
    "cli.import_s": ["cli.import"],
    "meshio.read_mesh_s": ["meshio.read_mesh"],
    "meshio.read_values_s": ["meshio.read_values", "meshio.preset_abs_xy"],
    "meshio.write_reduced_s": ["meshio.write_reduced"],
    "complexes.build_s": ["complexes.build_simplicial",
                          "complexes.full_subcomplex"],
    "filtration.entry_grades_s": ["filtration.entry_grades"],
    "indexing.index_s": ["indexing.lex_indexing", "indexing.build_dag",
                         "indexing.topo_sort_kahn"],
    "matching.partition_s": ["matching.partition"],
    "reduction.reduce_all_s": ["reduction.reduce_all"],
    "pipeline.sample_s": ["pipeline.sample_star_submeshes"],
    "oracle.verify_s": ["oracle.verify_equivalence"],
}
COUNT_METRICS = [
    "meshio.bytes_written", "complexes.cells_in",
    "filtration.distinct_grades", "indexing.dag_edges", "matching.pairs",
    "matching.critical", "reduction.cells_kept", "reduction.map_nnz",
    "pipeline.samples", "pipeline.sample_cells", "oracle.rank_entries",
    "oracle.grades_checked",
]
END_TO_END = ["wall_s", "setup_s", "cells_per_s", "peak_rss_mb", "kept_frac",
              "rank_entries", "ok_frac"]
# counts that must repeat exactly across runs of one seed
DETERMINISTIC = ["matching.pairs", "indexing.dag_edges", "reduction.map_nnz",
                 "oracle.rank_entries", "pipeline.sample_cells"]


class CheckFailed(Exception):
    """An output check failed; the message says which."""


def log(text: str) -> None:
    print(text, flush=True)


def calibrate() -> float:
    """A fixed pure-Python loop; its time tracks the host's speed."""
    t = time.perf_counter()
    x = 0
    for i in range(200_000):
        x += i * i
    return time.perf_counter() - t


def pin(i: int) -> None:
    """Move this process, and so the next child it starts, to the i-th
    usable CPU in turn. Slow spells of the host come and go on each CPU
    separately, so alternating keeps one spell from covering every run."""
    if len(CPUS) > 1:
        os.sched_setaffinity(0, {CPUS[i % len(CPUS)]})


def _kill(pid: int) -> None:
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Runner:
    """Starts children one at a time; keeps wall time and peak RSS."""

    def __init__(self, work: Path, start: float):
        self.work = work
        self.deadline = start + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failed = 0

    def launch(self, argv, tag: str):
        """Run argv to completion. Returns wall seconds (fork to reap),
        the child's own peak RSS in MB (from wait4, so earlier children
        do not count; never below this process's own peak, which stays
        small because the program runs only in children), the exit
        status and the stdout bytes."""
        self.attempted += 1
        out_path = self.work / f"{tag}.stdout"
        err_path = self.work / f"{tag}.stderr"
        left = self.deadline - time.perf_counter()
        if left <= 0:
            raise CheckFailed(f"{tag}: no time left before the deadline")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT,
                                    env=self.env)
            signal.signal(signal.SIGALRM, lambda *_: _kill(proc.pid))
            signal.setitimer(signal.ITIMER_REAL, left)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:       # interrupted: leave no child behind
                _kill(proc.pid)
                os.wait4(proc.pid, 0)
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return (wall, usage.ru_maxrss / 1024.0, proc.returncode,
                out_path.read_bytes())


def cli(*args) -> list:
    return [sys.executable, "-m", "multimorse.cli", *args]


def prepare(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's inputs; return paths and per-dim counts."""
    kind, size = WORKLOADS[workload]
    mesh = work / "input.off"
    if kind == "sphere":
        verts, faces = inputs.rotated_sphere(size, seed)
    else:
        verts, faces = inputs.torus(size)
    inputs.write_off(str(mesh), verts, faces)
    inp = {"mesh": str(mesh), "counts": inputs.cell_counts(len(verts), faces),
           "out": str(work / "reduced.txt"),
           "traced_out": str(work / "reduced.traced.txt")}
    if kind == "torus":
        inp["values"] = str(work / "input.values")
        inputs.write_values(inp["values"], inputs.tied_grades(
            len(verts), VALUE_LEVELS, 2, seed))
    return inp


def command(workload: str, inp: dict, seed: int, out: str) -> list:
    """The untraced command; traced runs give the same arguments to
    tracer.py."""
    if workload == "reduce-distinct":
        return cli("reduce", inp["mesh"], "--out", out, "--ring", "z2",
                   "--variant", "strict", "--indexing", "lex")
    if workload == "verify-sampled":
        return cli("verify", inp["mesh"], "--seed", str(seed),
                   "--max-cells", str(VERIFY_MAX_CELLS))
    return [sys.executable, str(BENCH / "lib_run.py"), inp["mesh"],
            inp["values"], out]


def traced_command(workload: str, inp: dict, seed: int, spans: str) -> list:
    argv = command(workload, inp, seed, inp["traced_out"])
    if workload == "maps-ties":
        return [sys.executable, str(BENCH / "tracer.py"), spans, "lib",
                *argv[2:]]
    return [sys.executable, str(BENCH / "tracer.py"), spans, "cli",
            *argv[3:]]


def stats_rows(text: str) -> dict:
    """Rows of a `multimorse stats`/`reduce` table: q -> (#S, #C)."""
    rows = {}
    for line in text.splitlines():
        parts = line.split()
        if len(parts) == 4 and parts[0].isdigit():
            rows[int(parts[0])] = (int(parts[1]), int(parts[2]))
    return rows


def euler(counts) -> int:
    return sum((-1) ** q * n for q, n in enumerate(counts))


def check_input_counts(rows: dict, counts: list, what: str) -> None:
    got = [rows.get(q, (None,))[0] for q in range(len(counts))]
    if got != counts or len(rows) != len(counts):
        raise CheckFailed(f"{what}: input cells {got}, generated {counts}")


def read_back(runner: Runner, path: str, ring: str, betti: bool = False):
    """Read a written reduced complex back in an untimed check.py child
    (read_reduced runs validate()); returns its JSON result."""
    argv = [sys.executable, str(BENCH / "check.py"), path, ring]
    _, _, status, out = runner.launch(argv + ["betti"] * betti, "check")
    if status != 0:
        raise CheckFailed(f"{path} does not read back: check.py exit {status}")
    return json.loads(out.decode().splitlines()[-1])


def check_reduce(stdout: str, inp: dict, out_path: str | None,
                 runner: Runner):
    """reduce: input counts as generated, Euler characteristic kept, and
    the written file reads back with the table's counts. Returns the
    kept fraction."""
    rows = stats_rows(stdout)
    check_input_counts(rows, inp["counts"], "reduce")
    before = [rows[q][0] for q in sorted(rows)]
    after = [rows[q][1] for q in sorted(rows)]
    if euler(before) != euler(after):
        raise CheckFailed(f"reduce: Euler characteristic {euler(before)} "
                          f"became {euler(after)}")
    if out_path is not None:
        in_file = read_back(runner, out_path, "z2")["cells"]
        if in_file != after:
            raise CheckFailed(f"reduce: file holds {in_file} cells, "
                              f"table says {after}")
    return sum(after) / sum(before)


def full_check(workload: str, inp: dict, stdout: str, runner: Runner):
    """Check one run's output in full; returns (kept_frac, rank_entries)."""
    if workload == "reduce-distinct":
        # rank_entries: the one homology invariant compared, the Euler
        # characteristic
        return check_reduce(stdout, inp, inp["out"], runner), 1
    if workload == "verify-sampled":
        lines = stdout.splitlines()
        if not lines or lines[-1] != f"PASS samples={SAMPLE_COUNT}":
            raise CheckFailed(f"verify: last line {lines[-1:]!r}")
        samples = [ln for ln in lines if ln.startswith("SAMPLE ")]
        if len(samples) != SAMPLE_COUNT \
                or not all(" PASS checked=" in ln for ln in samples):
            raise CheckFailed("verify: missing or failed SAMPLE lines")
        entries = sum(int(re.search(r" checked=(\d+)", ln).group(1))
                      for ln in samples)
        # verify prints no whole-complex reduction; one untimed reduce of
        # the same input gives kept_frac
        _, _, status, out = runner.launch(
            cli("reduce", inp["mesh"]), "kept-reduce")
        if status != 0:
            raise CheckFailed(f"reduce for kept_frac: exit {status}")
        return check_reduce(out.decode(), inp, None, runner), entries
    m = re.fullmatch(r"PI_IOTA ok survivors=(\d+) map_nnz=(\d+)",
                     stdout.splitlines()[-1] if stdout else "")
    if not m:
        raise CheckFailed(f"maps-ties: last line {stdout[-200:]!r}")
    back = read_back(runner, inp["out"], "z", betti=True)
    if sum(back["cells"]) != int(m.group(1)):
        raise CheckFailed(f"maps-ties: file holds {sum(back['cells'])} "
                          f"cells, run reported {m.group(1)}")
    if back["betti"] != [1, 2, 1]:
        raise CheckFailed(f"maps-ties: reduced torus has Betti "
                          f"{back['betti']}")
    # rank_entries: the three Betti numbers compared
    return sum(back["cells"]) / sum(inp["counts"]), 3


def digest(stdout: bytes, path: str | None) -> str:
    h = hashlib.sha256(stdout)
    if path is not None:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def out_file(workload: str, inp: dict, traced: bool):
    if workload == "verify-sampled":
        return None
    return inp["traced_out"] if traced else inp["out"]


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def median_wall(walls, calibs, name: str) -> float:
    """Median wall time; logs its quartiles and the calibration times
    taken before the same runs."""
    q1, med, q3 = quartiles(walls)
    c1, cmed, c3 = quartiles(calibs)
    log(f"{name} median={med:.4f} q1={q1:.4f} q3={q3:.4f} n={len(walls)}; "
        f"calib median={cmed * 1e3:.3f}ms q1={c1 * 1e3:.3f} "
        f"q3={c3 * 1e3:.3f}")
    return med


def setup_phase(inp: dict, runner: Runner):
    """Runs `multimorse stats` on the input several times; returns the
    walls and the calibration time taken before each."""
    walls, calibs = [], []
    t0 = time.perf_counter()
    for i in range(SETUP_RUNS[1]):
        if i >= SETUP_RUNS[0] and time.perf_counter() - t0 >= SETUP_SECONDS:
            break
        pin(i)
        calib = calibrate()
        wall, _, status, out = runner.launch(cli("stats", inp["mesh"]),
                                             f"setup-{i}")
        try:
            if status != 0:
                raise CheckFailed(f"stats: exit {status}")
            check_input_counts(stats_rows(out.decode()), inp["counts"],
                               "stats")
        except CheckFailed as e:
            runner.failed += 1
            log(f"setup {i}: FAILED {e}")
            continue
        walls.append(wall)
        calibs.append(calib)
        log(f"setup {i}: stats wall={wall:.4f}s calib={calib * 1e3:.2f}ms")
    return walls, calibs


class Measured:
    """Runs of the measured command, each checked against the first."""

    def __init__(self, workload, inp, seed, runner):
        self.workload, self.inp, self.seed = workload, inp, seed
        self.runner = runner
        self.reference = None       # digest of the checked first output
        self.kept_frac = self.rank_entries = None
        self.records = []

    def run(self, traced: bool = False, spans: str | None = None) -> dict:
        runner, inp = self.runner, self.inp
        # the i-th untraced and the i-th traced run share a CPU
        pin(sum(r["traced"] == traced for r in self.records))
        calib = calibrate()
        if traced:
            argv = traced_command(self.workload, inp, self.seed, spans)
        else:
            argv = command(self.workload, inp, self.seed, inp["out"])
        tag = f"{'traced' if traced else 'run'}-{len(self.records)}"
        wall, rss, status, out = runner.launch(argv, tag)
        rec = {"traced": traced, "wall_s": wall, "peak_rss_mb": rss,
               "calib_s": calib, "exit": status, "ok": False}
        try:
            if status != 0:
                raise CheckFailed(f"exit status {status}")
            d = digest(out, out_file(self.workload, inp, traced))
            if self.reference is None:
                if traced:
                    raise CheckFailed("traced run before a checked run")
                self.kept_frac, self.rank_entries = full_check(
                    self.workload, inp, out.decode(), runner)
                self.reference = d
            elif d != self.reference:
                raise CheckFailed("output differs from the first run")
            rec["ok"] = True
        except CheckFailed as e:
            rec["error"] = str(e)
            runner.failed += 1
        except Exception as e:      # a check that crashed is a failed check
            rec["error"] = f"{type(e).__name__}: {e}"
            runner.failed += 1
        self.records.append(rec)
        log(f"{tag}: wall={wall:.4f}s rss={rss:.1f}MB "
            f"calib={calib * 1e3:.2f}ms exit={status} "
            f"{'ok' if rec['ok'] else 'FAILED ' + rec['error']}")
        return rec


def end_to_end(m: Measured, setup, inp) -> dict:
    ok = [r for r in m.records if r["ok"]]
    attempted = m.runner.attempted
    metrics = {}
    if ok:
        wall = median_wall([r["wall_s"] for r in ok],
                           [r["calib_s"] for r in ok], "wall_s")
        rss = [r["peak_rss_mb"] for r in ok]
        metrics["wall_s"] = (wall, "s")
        metrics["cells_per_s"] = (sum(inp["counts"]) / wall, "1/s")
        metrics["peak_rss_mb"] = (statistics.median(rss), "MB")
        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        log(f"peak_rss_mb median={statistics.median(rss):.1f} "
            f"min={min(rss):.1f}; floor (benchmark process) {own:.1f}")
    if setup[0]:
        metrics["setup_s"] = (median_wall(*setup, "setup_s"), "s")
    if m.kept_frac is not None:
        metrics["kept_frac"] = (m.kept_frac, "ratio")
        metrics["rank_entries"] = (m.rank_entries, "count")
    metrics["ok_frac"] = ((attempted - m.runner.failed) / attempted, "ratio")
    return metrics


def self_times(spans) -> dict:
    """Per layer: span time not covered by child spans."""
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    out = {}
    for s, t in zip(spans, own):
        layer = s[0].split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + t
    return out


def per_layer(m: Measured, work: Path, traced_runs: list) -> dict:
    """Per-layer metrics: medians of span times over traced runs; counts,
    which must repeat exactly across runs."""
    ok = [r for r in traced_runs if r["ok"]]
    if not ok:
        return {}
    times = {name: [] for name in TIME_METRICS}
    selfs = {}
    counts = None
    for r in ok:
        data = r["trace"]
        for name, fns in TIME_METRICS.items():
            times[name].append(sum(s[2] - s[1] for s in data["spans"]
                                   if s[0] in fns))
        for layer, t in self_times(data["spans"]).items():
            selfs.setdefault(layer, []).append(t)
        run_counts = {k: data["counts"].get(k, 0) for k in COUNT_METRICS}
        if counts is None:
            counts = run_counts
        else:
            for k in DETERMINISTIC:
                if run_counts[k] != counts[k]:
                    raise CheckFailed(f"count {k} changed between runs of "
                                      f"one seed: {counts[k]} vs "
                                      f"{run_counts[k]}")
    metrics = {name: (statistics.median(v), "s") for name, v in times.items()}
    for k in COUNT_METRICS:
        metrics[k] = (counts[k], "count")
    plain = [r["wall_s"] for r in m.records if not r["traced"] and r["ok"]]
    traced = [r["wall_s"] for r in ok]
    overhead = statistics.median(traced) - statistics.median(plain)
    self_med = {k: statistics.median(v) for k, v in sorted(selfs.items())}
    log("self time per layer (median over traced runs):")
    for layer, t in sorted(self_med.items(), key=lambda kv: -kv[1]):
        log(f"  {layer:<11} {t:8.4f} s")
    log(f"tracing overhead: traced wall {statistics.median(traced):.4f}s - "
        f"untraced wall {statistics.median(plain):.4f}s = {overhead:.4f}s")
    report = {"spans_fields": ["name", "start_s", "end_s", "parent"],
              "spans": ok[-1]["trace"]["spans"], "self_s": self_med,
              "overhead_s": overhead, "traced_wall_s": traced,
              "untraced_wall_s": plain}
    (work / "trace.json").write_text(json.dumps(report, indent=1))
    log(f"spans written to {work / 'trace.json'}")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()

    if not (SRC / "multimorse" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC / 'multimorse'}",
              file=sys.stderr)
        return 2

    work = OUT / f"{args.workload}-s{args.seed}-t{args.trace}"
    work.mkdir(parents=True, exist_ok=True)
    t = time.perf_counter()
    inp = prepare(args.workload, args.seed, work)
    log(f"{args.workload} seed={args.seed}: input cells per dim "
        f"{inp['counts']} generated in {time.perf_counter() - t:.3f}s")

    runner = Runner(work, start)
    m = Measured(args.workload, inp, args.seed, runner)
    error = None
    try:
        if args.trace == 0:
            setup = setup_phase(inp, runner)
            t0 = time.perf_counter()
            while len(m.records) < MIN_RUNS \
                    or time.perf_counter() - t0 < args.seconds:
                m.run()
            metrics = end_to_end(m, setup, inp)
            (work / "runs.json").write_text(json.dumps(
                {"setup_wall_s": setup[0], "setup_calib_s": setup[1],
                 "runs": m.records}, indent=1))
        else:
            traced_runs = []
            t0 = time.perf_counter()
            while len(traced_runs) < 2 \
                    or time.perf_counter() - t0 < args.seconds:
                m.run()
                spans = str(work / f"spans-{len(m.records)}.json")
                rec = m.run(traced=True, spans=spans)
                if rec["ok"]:
                    rec["trace"] = json.loads(Path(spans).read_text())
                traced_runs.append(rec)
            metrics = per_layer(m, work, traced_runs)
    except CheckFailed as e:
        error, metrics = str(e), {}
        runner.failed += 1
        runner.attempted = max(runner.attempted, 1)
        log(f"FAILED: {e}")
    finally:
        for path in (inp["out"], inp["traced_out"]):
            if os.path.exists(path):
                os.remove(path)

    expected = END_TO_END if args.trace == 0 \
        else list(TIME_METRICS) + COUNT_METRICS
    correct = error is None and runner.failed == 0 \
        and all(k in metrics for k in expected)
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

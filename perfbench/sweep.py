"""Run the benchmark over many seeds and report the spread of each metric.

    python3 perfbench/sweep.py [--seeds 1-10] [--save FILE] [--compare FILE]

One command for every workload: for each seed it runs perfbench/run.py
once per workload of BENCHMARK.json, for its run_seconds, rotating the
workload order from seed to seed so that slow and fast spells of the
host fall on every workload alike. For each end-to-end metric it prints
the median and quartiles over the seeds (statistics.quantiles, n=4) and
the spread (q3 - q1) / median against the metric's bound in
BENCHMARK.json, flagged ok (below a third of the bound), WIDE (below
the bound) or OVER; the host calibration loop is reported the same
way, so a noisy set shows as noisy.
--compare takes an earlier --save file and prints each median's change
against the bound (positive = worse). Exits 1 when any run failed its
output checks, or when --compare finds a metric worse than its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3, (q3 - q1) / med if med else 0.0


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--save", default=None)
    ap.add_argument("--compare", default=None)
    args = ap.parse_args(argv)
    seeds = seed_list(args.seeds)
    workloads = [w["name"] for w in spec["workloads"]]
    metrics_spec = spec["end_to_end"]

    results = {w: [] for w in workloads}
    calib = {w: [] for w in workloads}
    failed = False
    for i, seed in enumerate(seeds):
        order = workloads[i % len(workloads):] + workloads[:i % len(workloads)]
        for w in order:
            proc = subprocess.run(
                [sys.executable, str(BENCH / "run.py"), "--workload", w,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "metrics": {}}
            ok = proc.returncode == 0 and result["correct"]
            failed = failed or not ok
            results[w].append(result["metrics"])
            m = re.search(r"^wall_s median=.* calib median=([0-9.]+)ms",
                          proc.stdout, re.M)
            if m:
                calib[w].append(float(m.group(1)))
            shown = {k: round(v["value"], 4)
                     for k, v in result["metrics"].items()}
            print(f"seed {seed} {w}: {'ok' if ok else 'FAILED'} {shown}",
                  flush=True)
            if not ok:
                print(proc.stdout[-2000:], proc.stderr[-2000:])

    summary = {}
    print(f"\n{'workload':<16}{'metric':<28}{'median':>12}{'q1':>12}"
          f"{'q3':>12}{'spread':>8}{'bound':>7}")
    for w in workloads:
        summary[w] = {}
        rows = [(m["name"], m["bound"]) for m in metrics_spec]
        rows.append(("calib_ms", None))
        for name, bound in rows:
            values = calib[w] if name == "calib_ms" else \
                [r[name]["value"] for r in results[w] if name in r]
            if len(values) < 2:
                print(f"{w:<16}{name:<28} missing")
                failed = True
                continue
            q1, med, q3, sp = spread(values)
            summary[w][name] = {"median": med, "q1": q1, "q3": q3,
                                "spread": sp, "n": len(values)}
            flag = ""
            if bound is not None:
                flag = "  ok" if sp < bound / 3 else \
                    ("  WIDE" if sp < bound else "  OVER")
            print(f"{w:<16}{name:<28}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{sp:>8.3f}{'' if bound is None else bound:>7}{flag}")
    if args.save:
        Path(args.save).write_text(json.dumps(
            {"seeds": seeds, "results": results, "calib_ms": calib,
             "summary": summary},
            indent=1))
    if args.compare:
        old = json.loads(Path(args.compare).read_text())["summary"]
        print("\nchange of each median against --compare (+ = worse):")
        for m in metrics_spec:
            for w in workloads:
                if m["name"] not in summary[w] or m["name"] not in old.get(w, {}):
                    continue
                a = old[w][m["name"]]["median"]
                b = summary[w][m["name"]]["median"]
                worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
                over = worse > m["bound"]
                failed = failed or over
                print(f"{w:<16}{m['name']:<20}{worse:+8.3f} bound "
                      f"{m['bound']}{'  OVER' if over else ''}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

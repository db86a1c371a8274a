#!/usr/bin/env python3
"""Run the benchmark on every workload and seed, and print each metric's
median, quartiles and spread next to its bound.

    python3 locec_bench/report.py --seeds 1 2 3 4 5 6 7 8 9 10 [--trace 0]

Runs ``locec_bench/run.py`` once per (workload, seed), one at a time, as
the benchmark's command does. The spread is the distance between the
first and third quartile as a share of the median; a steady benchmark
keeps it below a third of the metric's bound. The table is also written
to ``.bench_out/report-trace<t>.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", nargs="*", help="default: all of BENCHMARK.json")
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = args.workloads or [w["name"] for w in spec["workloads"]]
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    report, all_ok = {}, True
    for wl in names:
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", str(args.trace)]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            lines = p.stdout.strip().splitlines()
            res = json.loads(lines[-1]) if p.returncode == 0 and lines else None
            if res is None:
                print(f"{wl} seed {seed}: exit {p.returncode}\n{p.stderr[-2000:]}",
                      file=sys.stderr)
            runs.append(res)
        ok = [r for r in runs if r is not None]
        attempted = sum(r["attempted"] for r in ok)
        failed = sum(r["failed"] for r in ok)
        correct = len(ok) == len(runs) and all(r["correct"] for r in ok)
        all_ok &= correct
        print(f"\n== {wl}: {len(ok)}/{len(runs)} processes ok, correct={correct}, "
              f"failed_frac={failed}/{attempted}")
        rows = {}
        for m in metrics:
            vals = [r["metrics"][m["name"]]["value"] for r in ok]
            if not vals:
                continue
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med,) * 3
            spread = (q3 - q1) / med if med else 0.0
            bound = m.get("bound")
            rows[m["name"]] = {"unit": m["unit"], "median": med, "q1": q1, "q3": q3,
                               "spread": spread, "bound": bound, "values": vals}
            flag = "" if bound is None else (
                "ok" if spread < bound / 3 else "WIDE" if spread > bound else "wide/3")
            print(f"  {m['name']:<46} {med:>12.5g} {m['unit']:<6} "
                  f"q1={q1:<10.5g} q3={q3:<10.5g} spread={spread:6.3f} "
                  f"{'' if bound is None else f'bound={bound}'} {flag}")
        report[wl] = {"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": rows}
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", f"report-trace{args.trace}.json"), "w") as f:
        json.dump({"seeds": args.seeds, "workloads": report}, f, indent=1)
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())

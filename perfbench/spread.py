#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs the command in BENCHMARK.json once per seed on each workload and
prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartile as a share of the median
(statistics.quantiles(values, n=4)). A metric is steady when that share is
below a third of its bound.

    python3 perfbench/spread.py                      # all workloads, seeds 1-10
    python3 perfbench/spread.py --workloads suite --seeds 1-5 --json out.json

Run it from the root of the repository.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    bench = json.load(open("BENCHMARK.json"))
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--json", help="write every run's result line here")
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    for w in args.workloads.split(","):
        runs[w] = []
        for s in seeds(args.seeds):
            cmd = bench["command"] + ["--workload", w, "--seed", str(s),
                                      "--seconds", str(bench["run_seconds"]), "--trace", args.trace]
            out = subprocess.run(cmd, capture_output=True, text=True)
            if out.returncode != 0:
                sys.exit(f"{w} seed {s}: exit {out.returncode}\n{out.stderr}")
            runs[w].append(json.loads(out.stdout.strip().splitlines()[-1]))
            print(f"{w} seed {s} done", file=sys.stderr)

    worst = 0.0
    for w, rs in runs.items():
        print(f"\n{w} ({len(rs)} runs)")
        print(f"{'metric':16} {'median':>12} {'spread':>7} {'bound':>6}")
        for name in sorted(rs[0]["metrics"]):
            vals = [r["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [med, med, med]
            spread = (q[2] - q[0]) / med if med else 0.0
            bound = bounds.get(name)
            if bound and name != "setup_s":
                worst = max(worst, spread / bound)
            print(f"{name:16} {med:12.5g} {spread:7.3f} {bound if bound else '-':>6}")
    print(f"\nworst spread/bound (setup_s excluded): {worst:.2f}")
    if args.json:
        with open(args.json, "w") as f:
            json.dump(runs, f, indent=1)


if __name__ == "__main__":
    main()

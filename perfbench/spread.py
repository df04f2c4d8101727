#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, against BENCHMARK.json.

    python3 perfbench/spread.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                [--seconds S]

Runs the benchmark once per seed and workload (untraced), then prints per
metric the median, the quartile spread (Q3 - Q1, from
statistics.quantiles(n=4)) as a share of the median, and the metric's
bound. The spread of a metric should stay below a third of its bound;
setup_s is exempt from that and only compared across repeated sets.
Writes every run's metrics as JSON lines to --out if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    p = argparse.ArgumentParser()
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=bench["run_seconds"])
    p.add_argument("--out")
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = 0.0
    out = open(args.out, "a") if args.out else None
    for workload in args.workloads.split(","):
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            t0 = time.monotonic()
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "run.py"), "--workload",
                 workload, "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print("%s seed %d failed" % (workload, seed))
                return 1
            if out:
                out.write(json.dumps({"workload": workload, "seed": seed,
                                      "wall_s": time.monotonic() - t0,
                                      **result}) + "\n")
                out.flush()
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        print("== %s (%d seeds)" % (workload, args.seeds))
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            flag = "" if spread < bounds[name] / 3 else "  <-- over bound/3"
            if name != "setup_s":
                worst = max(worst, spread / bounds[name])
            print("  %-22s median %14.6g  spread %6.3f  bound %.2f%s"
                  % (name, med, spread, bounds[name], flag))
    print("worst spread / bound (setup_s exempt): %.3f" % worst)
    return 0


if __name__ == "__main__":
    sys.exit(main())

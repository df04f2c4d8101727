#!/usr/bin/env python3
"""Paired A/B runs of the end-to-end benchmark in two checkouts.

    scripts/perfbench_ab.py PARENT_DIR CHANGE_DIR --workload W --seed S \\
        --pairs N [--seconds 20]

Runs `python3 perfbench/run.py --workload W --seed S --seconds T --trace 0`
in each checkout N times. Each pair runs both sides back to back, and the
side that runs first alternates from pair to pair, so a drifting host
hits both sides alike. Before the pairs, each side runs once with
`--seconds 0`, untimed: that builds its Release binary (run.py's default
`.bench_build` inside that checkout; CARGO_TARGET_DIR is cleared so the
two sides cannot share one build) and warms the page cache.

Prints, for each end-to-end metric that CHANGE_DIR/BENCHMARK.json
registers: the median of each side, the change against the parent's
median, the spread (interquartile range) of the parent's runs, and in how
many pairs the change side was better; then every run's value, the
epochs of every run, and whether every run printed the same `# counts`
line. Exits 1 if a run fails or its verdict check fails, or if the
counts differ; 0 otherwise. Writes nothing but run.py's own build and
work directories.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys


def run_once(checkout, workload, seed, seconds):
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit("perfbench_ab: run failed in %s (exit %d)" %
                 (checkout, proc.returncode))
    result = json.loads(lines[-1])
    if not result.get("correct") or result.get("failed"):
        sys.exit("perfbench_ab: a verdict check failed in %s" % checkout)
    counts, epochs = None, None
    for line in lines:
        if line.startswith("# counts "):
            counts = json.loads(line[len("# counts "):])
        elif line.startswith("# workload="):
            m = re.search(r"\bepochs=(\d+)", line)
            epochs = int(m.group(1)) if m else None
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    return metrics, counts, epochs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent_dir")
    p.add_argument("change_dir")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=5)
    p.add_argument("--seconds", type=float, default=20)
    args = p.parse_args()
    sides = {"parent": os.path.abspath(args.parent_dir),
             "change": os.path.abspath(args.change_dir)}
    with open(os.path.join(sides["change"], "BENCHMARK.json")) as f:
        registered = json.load(f)["end_to_end"]

    for name, checkout in sides.items():
        print("warm-up build and run: %s (%s)" % (name, checkout), flush=True)
        run_once(checkout, args.workload, args.seed, 0)

    runs = {"parent": [], "change": []}
    for k in range(args.pairs):
        order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
        for name in order:
            runs[name].append(
                run_once(sides[name], args.workload, args.seed, args.seconds))
        print("pair %d/%d done (%s first)" % (k + 1, args.pairs, order[0]),
              flush=True)

    print("\n%s seed %d, %d pairs of %g s runs" %
          (args.workload, args.seed, args.pairs, args.seconds))
    print("%-20s %-6s %12s %12s %8s %12s %8s" %
          ("metric", "unit", "parent", "change", "change", "parent IQR",
           "better"))
    for metric in registered:
        key = metric["name"]
        if key not in runs["parent"][0][0]:
            continue
        parent = [r[0][key] for r in runs["parent"]]
        change = [r[0][key] for r in runs["change"]]
        lower = metric["better"] == "lower"
        wins = sum((c < q) if lower else (c > q) for q, c in zip(parent, change))
        p_med, c_med = statistics.median(parent), statistics.median(change)
        q1, q3 = quartiles(parent)
        rel = "%+.1f%%" % (100 * (c_med / p_med - 1)) if p_med else "n/a"
        print("%-20s %-6s %12.6g %12.6g %8s %12.4g %5d/%d" %
              (key, metric["unit"], p_med, c_med, rel, q3 - q1, wins,
               args.pairs))

    print("\nevery run, in pair order:")
    for metric in registered:
        key = metric["name"]
        if key not in runs["parent"][0][0]:
            continue
        for name in ("parent", "change"):
            print("  %-20s %s: %s" % (key, name, " ".join(
                "%.6g" % r[0][key] for r in runs[name])))
    for name in ("parent", "change"):
        print("epochs per run, %s: %s" %
              (name, " ".join(str(r[2]) for r in runs[name])))
    all_counts = [r[1] for name in runs for r in runs[name]]
    same = all(c == all_counts[0] for c in all_counts)
    print("# counts: %s" % ("identical in every run" if same else "DIFFER"))
    if not same:
        for name in runs:
            for i, r in enumerate(runs[name]):
                print("  %s run %d: %s" % (name, i + 1, json.dumps(r[1])))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())

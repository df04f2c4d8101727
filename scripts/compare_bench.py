#!/usr/bin/env python3
"""Compare two benchmark JSON artifacts and fail on regression.

Matches benchmarks by name between a committed baseline and a fresh run,
compares one time column (normalized to each entry's time_unit), and
exits 1 if any shared benchmark regressed by more than the threshold
(default 25%). The column is real_time for rows whose name ends in
"/real_time" (the benchmark called UseRealTime(), so wall time is what
it measures) and cpu_time for every other row.
Benchmarks present on only one side are reported but never fatal, so
adding or retiring benchmarks does not break CI.

Usage:
  compare_bench.py BASELINE.json CURRENT.json [--threshold 0.25]
"""

import argparse
import json
import sys

_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}


def gated_column(name: str) -> str:
    return "real_time" if name.endswith("/real_time") else "cpu_time"


def load_times(path: str) -> dict:
    with open(path) as f:
        doc = json.load(f)
    times = {}
    for b in doc.get("benchmarks", []):
        # Skip aggregate rows (mean/median/stddev) and complexity fits
        # ("_BigO"/"_RMS"): only raw iterations are comparable run-to-run.
        if b.get("run_type") == "aggregate":
            continue
        name = b["name"]
        if name.endswith("_BigO") or name.endswith("_RMS"):
            continue
        column = gated_column(name)
        if column not in b:
            continue
        times[name] = b[column] * _UNIT_NS.get(b.get("time_unit", "ns"), 1.0)
    return times


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="fractional slowdown that fails the comparison (default 0.25)",
    )
    args = parser.parse_args()

    base = load_times(args.baseline)
    cur = load_times(args.current)
    shared = sorted(set(base) & set(cur))
    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))

    regressions = []
    for name in shared:
        if base[name] <= 0:
            continue
        ratio = cur[name] / base[name]
        marker = ""
        if ratio > 1.0 + args.threshold:
            marker = "  <-- REGRESSION"
            regressions.append((name, ratio))
        print(f"{name:60s} {base[name]:14.1f} -> {cur[name]:14.1f} ns "
              f"{gated_column(name):9s} ({ratio:5.2f}x){marker}")
    for name in only_base:
        print(f"{name:60s} only in baseline (retired?)")
    for name in only_cur:
        print(f"{name:60s} only in current (new)")

    if not shared:
        print("error: no shared benchmarks to compare", file=sys.stderr)
        return 1
    if regressions:
        print(
            f"\nFAIL: {len(regressions)} benchmark(s) regressed beyond "
            f"{args.threshold:.0%}:",
            file=sys.stderr,
        )
        for name, ratio in regressions:
            print(f"  {name}: {ratio:.2f}x", file=sys.stderr)
        return 1
    print(f"\nOK: {len(shared)} shared benchmarks within {args.threshold:.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

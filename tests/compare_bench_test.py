#!/usr/bin/env python3
"""Checks which time column scripts/compare_bench.py gates.

The fixtures hold two rows whose real_time doubles while cpu_time stays
flat: "BM_Wall/real_time" (a UseRealTime() benchmark, gated on
real_time) and "BM_Cpu" (gated on cpu_time). Comparing both rows must
fail on the first alone; comparing the plain row alone must pass.

Usage:
  compare_bench_test.py COMPARE_BENCH_PY FIXTURE_DIR
"""

import json
import os
import subprocess
import sys
import tempfile


def run(script: str, baseline: str, current: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, script, baseline, current],
        capture_output=True,
        text=True,
    )


def keep_rows(src: str, dst: str, names: set) -> None:
    with open(src) as f:
        doc = json.load(f)
    doc["benchmarks"] = [b for b in doc["benchmarks"] if b["name"] in names]
    with open(dst, "w") as f:
        json.dump(doc, f)


def main() -> int:
    script, fixtures = sys.argv[1], sys.argv[2]
    baseline = os.path.join(fixtures, "baseline.json")
    current = os.path.join(fixtures, "current.json")
    failures = []

    both = run(script, baseline, current)
    if both.returncode != 1:
        failures.append(f"real_time row doubled: exit {both.returncode}, want 1")
    regressed = [l for l in both.stdout.splitlines() if "REGRESSION" in l]
    if len(regressed) != 1 or not regressed[0].startswith("BM_Wall/real_time"):
        failures.append(f"want only BM_Wall/real_time flagged, got {regressed}")

    with tempfile.TemporaryDirectory() as tmp:
        plain_base = os.path.join(tmp, "baseline.json")
        plain_cur = os.path.join(tmp, "current.json")
        keep_rows(baseline, plain_base, {"BM_Cpu"})
        keep_rows(current, plain_cur, {"BM_Cpu"})
        plain = run(script, plain_base, plain_cur)
    if plain.returncode != 0:
        failures.append(f"plain row, only real_time doubled: exit "
                        f"{plain.returncode}, want 0")

    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    if failures:
        print(both.stdout, both.stderr, plain.stdout, plain.stderr,
              sep="\n", file=sys.stderr)
        return 1
    print("OK: compare_bench.py gates real_time on /real_time rows only")
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Build and run the psem end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root. The first call configures and builds a
Release copy of the library and the benchmark binary
(perfbench/CMakeLists.txt) under $CARGO_TARGET_DIR, default .bench_build;
later calls only rebuild what changed. Build output goes to stderr. The binary's stdout is passed
through: readable metric lines, provenance lines starting with '#', and
as the last line one JSON object with correct/attempted/failed/metrics.

--self-test checks the benchmark itself: two runs of one seed must give
identical counts and verdict digest, a second seed must pass every check,
and each workload must exercise the layer it was chosen for.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
                        "perfbench")


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the psem sources (src/) are missing; run from a "
            "full checkout")
        sys.exit(2)
    bdir = build_dir()
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # Keep the compiler's temporary files inside the build directory.
    env = dict(os.environ, TMPDIR=tmp)
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", bdir, "--target", "psem_perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, env=env).returncode != 0:
            log("perfbench: build failed: " + " ".join(cmd))
            sys.exit(2)
    return os.path.join(bdir, "psem_perfbench")


def run(binary, workload, seed, seconds, trace, capture=False):
    bdir = build_dir()
    workdir = os.path.join(bdir, "work", "%s-%d" % (workload, os.getpid()))
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", workdir]
    if trace:
        cmd += ["--trace-out",
                os.path.join(bdir, "trace-%s-%s.json" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, ""
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return proc.returncode, proc.stdout or ""


def parse_output(out):
    lines = out.strip().splitlines()
    result = json.loads(lines[-1])
    counts = {}
    for line in lines:
        if line.startswith("# counts "):
            counts = json.loads(line[len("# counts "):])
    return result, counts


def workload_names(binary):
    out = subprocess.run([binary, "--list"], stdout=subprocess.PIPE, text=True,
                         check=True).stdout
    return [l for l in out.splitlines() if l and not l.startswith(" ")]


def self_test(binary):
    ok = True

    def check(cond, what):
        nonlocal ok
        log(("ok    " if cond else "FAIL  ") + what)
        ok = ok and cond

    for name in workload_names(binary):
        runs = []
        for seed in (11, 11, 12):
            rc, out = run(binary, name, seed, 1, 1, capture=True)
            check(rc == 0, "%s seed %d: every check passed" % (name, seed))
            if rc != 0:
                break
            runs.append(parse_output(out))
        if len(runs) < 3:
            continue
        (m1, c1), (_, c2), (m3, c3) = runs
        check(c1 == c2, "%s: one seed repeats every count and the verdict "
              "digest" % name)
        check(c1.get("check.verdict_digest") != c3.get("check.verdict_digest"),
              "%s: another seed gives other verdicts" % name)
        layers = {k: v["value"] for k, v in m1["metrics"].items()}
        if name == "chain-serve":
            check(layers["implication.dense_rounds"] == 0,
                  "chain-serve: the stream runs no dense closure round")
        elif name == "dense-write":
            check(layers["implication.setup_dense_rounds"] > 0,
                  "dense-write: the cold closure runs dense rounds")
        elif name == "csv-discover":
            share = (layers["self.csv.setup_share"] +
                     layers["self.discovery.setup_share"])
            check(share > 0.5, "csv-discover: CSV load + discovery are most "
                  "of set-up (%.2f)" % share)
        check(layers["recovery.total_ms"] > 0 and layers["recovery.replay_ms"] > 0,
              "%s: recovery reports its stage breakdown (uncovered %.3f ms "
              "of %.3f ms)" % (name, layers["recovery.uncovered_ms"],
                               layers["recovery.total_ms"]))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    binary = build()
    if args.self_test:
        sys.exit(self_test(binary))
    if not args.workload:
        p.error("--workload is required")
    rc, _ = run(binary, args.workload, args.seed, args.seconds, args.trace)
    sys.exit(rc)


if __name__ == "__main__":
    main()

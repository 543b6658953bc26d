#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload with --tiny in both trace modes (the untraced one
twice) and checks the output contract, that every run is correct, and
that the statistics digest and exact counters agree between the runs.
It also checks that BENCHMARK.json matches the tables in run.py, and
that the benchmark fails without printing a result when the simulator
sources are absent. Exits non-zero on the first failure.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run as bench  # noqa: E402

DIGEST_PREFIXES = ("statistics digest:", "exact counters:",
                   "exact counters digest:")


def fail(msg):
    sys.exit("selftest: FAIL: " + msg)


def invoke(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                          timeout=900)
    label = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        fail("%s exited %d" % (label, proc.returncode))
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (label, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or \
            result["attempted"] < 1:
        fail("%s: not correct: %s" % (label, lines[-1]))
    table = bench.END_TO_END if trace == 0 else bench.PER_LAYER
    want = {row[0]: row[1] for row in table}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        fail("%s: metrics/units differ from run.py's table" % label)
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            fail("%s: %s is not a number" % (label, name))
    return [l for l in lines if l.startswith(DIGEST_PREFIXES)]


def check_missing_sources():
    """Only BENCHMARK.json and perfbench/: must fail, print no result."""
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper16",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run without sources: exit %d, stdout %r"
             % (proc.returncode, proc.stdout[-200:]))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        if json.load(f) != bench.benchmark_json():
            fail("BENCHMARK.json is stale; run run.py "
                 "--write-benchmark-json")
    check_missing_sources()
    for workload, _ in bench.WORKLOADS + bench.EXTRA_WORKLOADS:
        first = invoke(workload, 0)
        if invoke(workload, 0) != first:
            fail("%s: digests differ between two runs" % workload)
        if invoke(workload, 1) != first:
            fail("%s: traced digests differ from untraced" % workload)
        print("selftest: %s ok" % workload, flush=True)
    print("selftest: all ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

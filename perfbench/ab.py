#!/usr/bin/env python3
"""Same-host A/B comparison of two checkouts with the same perfbench/.

    python3 perfbench/ab.py PARENT_DIR CHANGE_DIR --workload W \\
        [--pairs 10] [--seed N] [--seconds S] [--trace 0|1]

Runs PARENT_DIR/perfbench/run.py and CHANGE_DIR/perfbench/run.py in
alternating order (parent first in even pairs, change first in odd
ones), each in its own checkout and build tree. For every metric it
prints each side's median and quartiles, how many pairs the change
won, and a verdict under the rules in perfbench/README.md. It also
reports whether the statistics digest and the exact counters were the
same on both sides. Both checkouts must hold identical perfbench/
trees: copy this directory into the parent checkout first if needed.
"""

import argparse
import filecmp
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def same_tree(a, b):
    cmp = filecmp.dircmp(a, b, ignore=["__pycache__"])
    if cmp.left_only or cmp.right_only or cmp.diff_files or \
            cmp.funny_files:
        return False
    return all(same_tree(os.path.join(a, d), os.path.join(b, d))
               for d in cmp.common_dirs)


def one_run(checkout, args):
    cmd = [sys.executable, "perfbench/run.py", "--workload", args.workload,
           "--seed", args.seed, "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    env = dict(os.environ)
    env.pop("CARGO_TARGET_DIR", None)
    proc = subprocess.run(cmd, cwd=checkout, env=env, text=True,
                          stdout=subprocess.PIPE)
    if proc.returncode != 0:
        sys.exit("ab: %s failed in %s" % (args.workload, checkout))
    lines = proc.stdout.splitlines()
    digests = [l for l in lines if l.startswith(
        ("statistics digest:", "exact counters:"))]
    result = json.loads(lines[-1])
    if not result["correct"]:
        sys.exit("ab: %s reported failures in %s" % (args.workload,
                                                     checkout))
    return {k: v["value"] for k, v in result["metrics"].items()}, digests


def quartiles(v):
    if len(v) < 2:
        return v[0], v[0], v[0]
    q = statistics.quantiles(v, n=4)
    return q[0], statistics.median(v), q[2]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", required=True,
                    choices=[n for n, _ in
                             bench.WORKLOADS + bench.EXTRA_WORKLOADS])
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", default=str(bench.DEFAULT_SEED))
    ap.add_argument("--seconds", type=float, default=bench.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("at least ten pairs")
    sides = [os.path.abspath(args.parent), os.path.abspath(args.change)]
    if not same_tree(*(os.path.join(s, "perfbench") for s in sides)):
        sys.exit("ab: the two perfbench/ trees differ")

    values = [dict(), dict()]
    digests = [set(), set()]
    for i in range(args.pairs):
        order = (0, 1) if i % 2 == 0 else (1, 0)
        for side in order:
            m, d = one_run(sides[side], args)
            digests[side].add(tuple(d))
            for k, v in m.items():
                values[side].setdefault(k, []).append(v)
        print("pair %d/%d done" % (i + 1, args.pairs), file=sys.stderr)

    if args.trace == 0:
        table = {n: (b, bound) for n, _, b, bound in bench.END_TO_END}
    else:
        table = {n: (b, None) for n, _, b in bench.PER_LAYER}
    print("%-34s %-32s %-32s %5s  %s" % ("metric", "parent q1/med/q3",
                                        "change q1/med/q3", "wins",
                                        "verdict"))
    for name, (better, bound) in table.items():
        p, c = values[0][name], values[1][name]
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        pq, cq = quartiles(p), quartiles(c)
        spread = pq[2] - pq[0]
        delta = sign * (cq[1] - pq[1])
        worse = -delta / abs(pq[1]) if pq[1] else 0.0
        if wins >= 0.9 * len(p) and delta > spread:
            verdict = "gain"
        elif bound is None:
            verdict = "per-layer, no bound"
        elif pq[1] and spread / abs(pq[1]) > bound and \
                not min(sign * x for x in c) > max(sign * x for x in p):
            verdict = "unresolved (spread above bound)"
        elif worse > bound:
            verdict = "REGRESSION (%.1f%% worse, bound %.0f%%)" % (
                100 * worse, 100 * bound)
        else:
            verdict = "within bound"
        print("%-34s %-32s %-32s %2d/%-2d  %s" % (
            name, "%.4g/%.4g/%.4g" % pq, "%.4g/%.4g/%.4g" % cq, wins,
            len(p), verdict))
    same = digests[0] == digests[1] and len(digests[0]) == 1
    print("statistics digest and exact counters: %s"
          % ("identical on both sides" if same else "DIFFER"))
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Gate the simulator on perfbench's statistics digest and exact counters.

Runs `python3 perfbench/run.py --workload W --seed S --seconds 1` for
every workload x seed cell recorded in tests/perf_counters.json and
compares the `statistics digest:` and `exact counters:` lines with the
recorded values. Neither depends on how fast the host is, so the gate
measures the code, not the machine:

  - the statistics digest and every exact counter but run_allocs must
    match exactly;
  - run_allocs (heap allocations during the measured pass) depends on
    the libstdc++ build, so it is a cap: the recorded value plus the
    headroom the JSON states.

On a mismatch the observed values are printed in the JSON's own shape.
A change that means to alter simulated behaviour re-records them there
and says why in CHANGES.md.

Usage:
  tools/check_perf_counters.py              run all cells (builds
                                            perfbench on first use)
  tools/check_perf_counters.py --self-test  check the comparison on the
                                            recorded values, no build

Stdlib only; no third-party dependencies.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RECORD = os.path.join(ROOT, "tests", "perf_counters.json")
CAPPED = "run_allocs"


def parse_output(stdout):
    """Return (correct, digest, counters) from one run.py stdout."""
    lines = stdout.splitlines()
    digest, counters = None, None
    for line in lines:
        if line.startswith("statistics digest: "):
            digest = line.split(": ", 1)[1].strip()
        elif line.startswith("exact counters: "):
            counters = json.loads(line.split(": ", 1)[1])
    try:
        correct = json.loads(lines[-1]).get("correct") is True
    except (IndexError, ValueError, AttributeError):
        correct = False
    return correct, digest, counters


def compare(want, digest, counters, headroom):
    """Every way the observed values miss the recorded ones."""
    problems = []
    if digest != want["digest"]:
        problems.append("statistics digest %s, recorded %s"
                        % (digest, want["digest"]))
    if counters is None:
        return problems + ["no exact counters line"]
    for name in sorted(set(want["counters"]) | set(counters)):
        got = counters.get(name)
        rec = want["counters"].get(name)
        if name == CAPPED and got is not None and rec is not None:
            cap = int(rec * (1 + headroom))
            if got > cap:
                problems.append("%s %d exceeds the cap %d (recorded %d "
                                "+ %d%%)" % (name, got, cap, rec,
                                             round(headroom * 100)))
        elif got != rec:
            problems.append("%s %s, recorded %s" % (name, got, rec))
    return problems


def run_cell(workload, seed):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", seed, "--seconds", "1"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True)
    if proc.returncode != 0:
        return False, None, None
    return parse_output(proc.stdout)


def check_all(record):
    failed = 0
    for workload, seeds in record["cells"].items():
        for seed, want in seeds.items():
            correct, digest, counters = run_cell(workload, seed)
            problems = compare(want, digest, counters,
                               record["run_allocs_headroom"])
            if not correct:
                problems.insert(0, "run.py did not report correct")
            label = "%s seed %s" % (workload, seed)
            if not problems:
                print("check_perf_counters: OK: %s" % label)
                continue
            failed += 1
            print("check_perf_counters: FAIL: %s" % label)
            for p in problems:
                print("  " + p)
            print("  observed: " + json.dumps(
                {"digest": digest, "counters": counters}))
    return failed == 0


def self_test(record):
    """Recorded values pass; a changed digest, any other counter off by
    one, or run_allocs past its cap fails; run_allocs under it passes."""
    headroom = record["run_allocs_headroom"]
    cases = 0
    ok = True

    def expect(label, want, digest, counters, should_pass):
        nonlocal ok, cases
        cases += 1
        passed = not compare(want, digest, counters, headroom)
        if passed != should_pass:
            ok = False
            print("self-test: FAIL %s: %s" % (
                label, "accepted" if passed else "rejected"))

    for workload, seeds in record["cells"].items():
        for seed, want in seeds.items():
            label = "%s seed %s" % (workload, seed)
            stdout = "\n".join([
                "statistics digest: " + want["digest"],
                "exact counters: " + json.dumps(want["counters"]),
                json.dumps({"correct": True})])
            correct, digest, counters = parse_output(stdout)
            if not correct:
                ok = False
                print("self-test: FAIL %s: correct not parsed" % label)
            expect(label, want, digest, counters, True)
            expect(label + " digest", want, digest[::-1], counters,
                   False)
            for name in want["counters"]:
                if name == CAPPED:
                    continue
                for delta in (1, -1):
                    bent = dict(counters, **{name: counters[name] + delta})
                    expect("%s %s%+d" % (label, name, delta), want,
                           digest, bent, False)
            cap = int(want["counters"][CAPPED] * (1 + headroom))
            for allocs, should_pass in ((cap, True), (cap + 1, False),
                                        (0, True)):
                expect("%s %s=%d" % (label, CAPPED, allocs), want,
                       digest, dict(counters, **{CAPPED: allocs}),
                       should_pass)
    print("self-test: %s (%d cases)" % ("PASS" if ok else "FAIL", cases))
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    with open(RECORD, encoding="utf-8") as f:
        record = json.load(f)
    if args.self_test:
        sys.exit(0 if self_test(record) else 1)
    sys.exit(0 if check_all(record) else 1)


if __name__ == "__main__":
    main()

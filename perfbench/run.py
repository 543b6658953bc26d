#!/usr/bin/env python3
"""Same-host benchmark of the SP-prediction simulator.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --write-benchmark-json

Builds perfbench/ (which compiles the simulator library from src/)
into .bench_build/, or into $CARGO_TARGET_DIR when that is set, runs
one workload, prints every metric by name and unit, and ends stdout
with one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones. See perfbench/README.md.

The tables below are the single list of workloads and metrics;
--write-benchmark-json renders BENCHMARK.json from them.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The seed used while writing a change, and the one kept back to
# re-check a claimed gain on inputs the change was not tuned on.
DEFAULT_SEED = 1
HELDOUT_SEED = 7919

RUN_SECONDS = 15

WORKLOADS = [
    ("paper16", "Fig. 7/9/10 grid, 17 apps x 4 protocols at 16 cores on live "
     "generators: dispatch, coroutines, caches, handlers and predictor"),
    ("wide64", "8x8 cells where core-count costs dominate: multi-word "
     "CoreSets, sharer tracking, longer routes, 64-snoop broadcasts"),
    ("ablate16_reuse", "SP threshold/depth grid replayed from .spptrace "
     "files into a cold then warm result store; no generator runs"),
]

# Runnable with --workload, but not in BENCHMARK.json: over ten seeds
# its wall_s and p50 spreads reached 19-24%, too close to the 0.25
# bound to gate on. The check layer is still measured by the other
# workloads' traced runs.
EXTRA_WORKLOADS = [
    ("check16", "thousands of short fuzz systems under the invariant "
     "checker plus model checking: construction and checker hooks"),
]

# name, unit, better, bound (share of the parent's median). Host
# times keep a 1-12% quartile spread over ten seeds even after the
# host-speed normalisation (README.md), hence the widest bound for
# them; README.md's A/B procedure resolves smaller changes. The sp_*
# bounds are at least three times their largest spread over ten seeds.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("accesses_per_s", "1/s", "higher", 0.25),
    ("host_ns_per_access.p50", "ns", "lower", 0.25),
    ("host_ns_per_access.p90", "ns", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("sp_exec_norm", "ratio", "lower", 0.05),
    ("sp_accuracy", "frac", "higher", 0.1),
    ("sp_bytes_norm", "ratio", "lower", 0.02),
]

# name, unit, better.
PER_LAYER = [
    ("event.events_per_access", "count", "lower"),
    ("event.loop_ns_per_event", "ns", "lower"),
    ("sim.build_ms", "ms", "lower"),
    ("sim.rss_mb_per_system", "MB", "lower"),
    ("workload.ns_per_op", "ns", "lower"),
    ("mem.l1_hit_frac", "frac", "higher"),
    ("mem.l2_hit_frac", "frac", "higher"),
    ("mem.lookup_ns", "ns", "lower"),
    ("coherence.handler_ns_per_msg", "ns", "lower"),
    ("coherence.msgs_per_miss", "count", "lower"),
    ("coherence.allocs_per_miss", "count", "lower"),
    ("coherence.miss_latency_cycles", "cycles", "lower"),
    ("noc.inject_ns_per_packet", "ns", "lower"),
    ("noc.hops_per_packet", "count", "lower"),
    ("noc.snoops_per_miss", "count", "lower"),
    ("noc.packet_latency_cycles", "cycles", "lower"),
    ("predict.ns_per_call", "ns", "lower"),
    ("predict.replay_ns_per_miss", "ns", "lower"),
    ("predict.table_accesses_per_miss", "count", "lower"),
    ("predict.sufficient_frac", "frac", "higher"),
    ("sync.points_per_kaccess", "count", "lower"),
    ("sync.contended_lock_frac", "frac", "lower"),
    ("trace.encode_mb_per_s", "MB/s", "higher"),
    ("trace.decode_mb_per_s", "MB/s", "higher"),
    ("trace.bytes_per_op", "B", "lower"),
    ("service.put_ms", "ms", "lower"),
    ("service.get_ms", "ms", "lower"),
    ("service.hit_frac", "frac", "higher"),
    ("check.fuzz_msgs_per_s", "1/s", "higher"),
    ("check.mc_execs_per_s", "1/s", "higher"),
    ("check.mc_pruned_frac", "frac", "higher"),
    ("check.build_frac", "frac", "lower"),
    ("host.allocs_per_access", "count", "lower"),
    ("trace_overhead_frac", "frac", "lower"),
]

# Printed beside the sp_* metrics: the paper's figure and this repo's
# full-scale reproduction (EXPERIMENTS.md, "Headline results"). The
# benchmark runs reduced inputs, so its values are not expected to
# match either.
REFERENCE = {
    "sp_exec_norm": "paper Fig. 10: 0.93; repo at full scale: 0.943",
    "sp_accuracy": "paper Fig. 7: 0.77; repo at full scale: 0.72",
    "sp_bytes_norm": "paper Fig. 9: 1.18; repo at full scale: 1.126",
}


def benchmark_json():
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": x}
                       for n, u, b, x in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(os.path.abspath(target), "perfbench")


def build(out):
    """Configure once, then an incremental build; output to stderr."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("perfbench: simulator sources (src/) not found")
    if shutil.which("cmake") is None:
        sys.exit("perfbench: cmake not found")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", out, "-j", jobs, "--target",
                    "perfbench"], check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=[n for n, _ in WORKLOADS + EXTRA_WORKLOADS])
    ap.add_argument("--seed", default=str(DEFAULT_SEED),
                    help="integer, or 'heldout' for %d" % HELDOUT_SEED)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="self-test scale (perfbench/selftest.py)")
    ap.add_argument("--write-benchmark-json", action="store_true",
                    help="render BENCHMARK.json from the tables above")
    args = ap.parse_args()

    if args.write_benchmark_json:
        with open(os.path.join(ROOT, "BENCHMARK.json"), "w") as f:
            json.dump(benchmark_json(), f, indent=2)
            f.write("\n")
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    seed = HELDOUT_SEED if args.seed == "heldout" else int(args.seed)

    out = build_dir()
    try:
        binary = build(out)
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: build failed (%s)" % e)

    cmd = [binary, "--workload", args.workload, "--seed", str(seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", os.path.join(out, "work-%d" % os.getpid())]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=170)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: %s timed out" % args.workload)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or \
            not lines[-1].startswith("RESULT "):
        sys.stdout.write(proc.stdout)
        sys.exit("perfbench: %s failed (exit %d)"
                 % (args.workload, proc.returncode))
    for line in lines[:-1]:
        print(line)
    raw = json.loads(lines[-1][len("RESULT "):])

    table = END_TO_END if args.trace == 0 else PER_LAYER
    units = {row[0]: row[1] for row in table}
    if set(raw["metrics"]) != set(units):
        sys.exit("perfbench: metric names differ from the table: %s"
                 % sorted(set(raw["metrics"]) ^ set(units)))
    print("seed: %d (%s)" % (seed, "default" if seed == DEFAULT_SEED else
                             "held-out" if seed == HELDOUT_SEED else
                             "other"))
    print("model: not validated against hardware; the modelled caches "
          "start empty in every cell")
    print("failed_frac: %g (%d of %d cells or cases)"
          % (raw["failed"] / raw["attempted"], raw["failed"],
             raw["attempted"]))
    for row in table:
        name, unit, better = row[0], row[1], row[2]
        ref = REFERENCE.get(name, "")
        print("  %-34s %18.6g %-7s %-6s %s"
              % (name, raw["metrics"][name], unit, better, ref))
    result = {
        "correct": raw["correct"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {row[0]: {"value": raw["metrics"][row[0]],
                             "unit": row[1]} for row in table},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

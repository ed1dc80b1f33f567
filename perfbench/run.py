#!/usr/bin/env python3
"""End-to-end benchmark of core::run_pipeline, local and MapReduce.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload amplicon_uniform --seed 1 \
        --seconds 10 --trace 0

It builds perfbench_harness from source into .bench_build/, generates the
workload's FASTA input from --seed, times the set-up pass in fresh processes,
then times warm passes for --seconds and checks every output.  The last
stdout line is one JSON object: {"correct", "attempted", "failed",
"metrics"}.  --trace 0 reports the end-to-end metrics of BENCHMARK.json,
--trace 1 the per-layer ones (and writes a Chrome trace under .bench_build/).
A failed check prints the result and exits 1.  See perfbench/NOTES.md.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
HARNESS = os.path.join(BUILD, "perfbench_harness")
STEP_TIMEOUT_S = 170


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [
        ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
        ["cmake", "--build", BUILD, "-j", jobs],
    ]
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            raise SystemExit("perfbench: build failed: " + " ".join(step))


def harness(*args):
    """Run one harness step; return its last stdout line as JSON."""
    done = subprocess.run([HARNESS, *args], cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=STEP_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: harness {args[0]} failed "
                         f"(exit {done.returncode})")
    for line in lines[:-1]:
        print(line)
    return json.loads(lines[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject-slowdown", type=float, default=1.0,
                        help="stretch every timed run by this factor (bound "
                             "check only; never used for real figures)")
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
        spec = json.load(spec_file)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        raise SystemExit(f"perfbench: unknown workload {args.workload}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    build()
    runs = os.path.join(ROOT, ".bench_build", "perfbench-runs")
    work = os.path.join(runs, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    base = os.path.join(work, "input")
    try:
        info = harness("prepare", "--workload", args.workload,
                       "--seed", str(args.seed), "--out", base,
                       "--facts", str(args.trace))
        setups = {}
        if not args.trace:
            # One fresh process per mode: each times a set-up pass and
            # reports the peak RSS of its first run.
            setups = {first: harness("setup", "--workload", args.workload,
                                     "--fasta", base + ".fa", "--first", first,
                                     "--inject-slowdown",
                                     str(args.inject_slowdown))
                      for first in ("local", "distributed")}
        trace_out = os.path.join(ROOT, ".bench_build", "perfbench-traces",
                                 f"{args.workload}-seed{args.seed}.json")
        os.makedirs(os.path.dirname(trace_out), exist_ok=True)
        result = harness("measure", "--workload", args.workload,
                         "--base", base, "--seconds", str(args.seconds),
                         "--trace", str(args.trace), "--trace-out", trace_out,
                         "--inject-slowdown", str(args.inject_slowdown))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = result["attempted"] + len(setups)
    failed = result["failed"]
    for setup in setups.values():
        if not setup["consistent"] or setup["labels"] != result["labels"]:
            log("perfbench: set-up pass labels differ from the measured run")
            failed += 1
    metrics = dict(result["metrics"])
    if not args.trace:
        samples = [s["setup_s"] for s in setups.values()] + [result["setup_s"]]
        metrics["setup_s"] = statistics.median(samples)
        metrics["local_peak_rss_mb"] = setups["local"]["peak_rss_mb"]
        metrics["mr_peak_rss_mb"] = setups["distributed"]["peak_rss_mb"]
        metrics["pass_ratio"] = (attempted - failed) / attempted

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: harness did not report {missing}")
    counts = f"timings are medians of {result['passes']} timed passes"
    if not args.trace:
        counts += f", setup_s of {len(samples)} fresh-process set-up passes"
    print(f"{args.workload} seed={args.seed}: {info['reads']:.0f} reads, "
          f"{attempted} runs, {failed} failed; {counts}")
    for m in wanted:
        print(f"  {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())

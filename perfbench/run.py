#!/usr/bin/env python3
"""Repository benchmark: build perfbench, run one workload, check it, report.

Usage (from the repository root):

    python3 perfbench/run.py --workload ir-hybrid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 5    # every workload
    python3 perfbench/run.py --calibrate                   # serving constants

The C++ binary is built from perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
repository root. It repeats the workload for --seconds and prints one
line per repetition; this script takes medians, checks that every
output check passed and that the simulated metrics repeated exactly,
and prints a table followed by one JSON result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end_to_end list of BENCHMARK.json,
with --trace 1 the per_layer list. See perfbench/README.md.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ir-hybrid", "serve-zipf", "stream-write")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (target if target.is_absolute() else ROOT / target) / "perfbench"


def build():
    """Configure (once) and build perfbench; returns the binary path."""
    out = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not (out / "CMakeCache.txt").exists():
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    step = subprocess.run(["cmake", "--build", str(out), "-j", "4"],
                          stdout=sys.stderr)
    binary = out / "perfbench"
    return binary if step.returncode == 0 and binary.exists() else None


def run_binary(binary, args):
    """Run perfbench; returns (repetitions, done-record, error text)."""
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return [], {}, "perfbench timed out"
    reps, done = [], {}
    for line in proc.stdout.splitlines():
        if line.startswith("REP "):
            reps.append(json.loads(line[4:]))
        elif line.startswith("DONE "):
            done = json.loads(line[5:])
    error = ""
    if proc.returncode != 0 or not done:
        error = "perfbench exited with %d: %s" % (
            proc.returncode, proc.stderr.strip()[-400:])
    return reps, done, error


def median(values):
    return statistics.median(values) if values else 0.0


def load_benchmark():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(binary, workload, seed, seconds, trace, corrupt=False):
    """One benchmark run: returns (result dict, problems, reps)."""
    args = ["--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        args += ["--spans-out", str(build_dir() / ("spans-%s.json" % workload))]
    if corrupt:
        args.append("--corrupt-expected")
    reps, done, error = run_binary(binary, args)
    problems = [error] if error else []
    for r in reps:
        problems += r["failures"]
    # Same seed, same inputs, same simulated numbers in every repetition.
    if len({r["inputs"] for r in reps}) > 1:
        problems.append("inputs differ between repetitions")
    for name in (reps[0]["sim"] if reps else {}):
        if len({r["sim"][name] for r in reps}) > 1:
            problems.append("simulated %s differs between repetitions" % name)
    attempted = sum(r["attempted"] for r in reps) or 1
    # A crash or a mismatch between repetitions counts as one failure.
    failed = max(sum(r["failed"] for r in reps), 1 if problems else 0)

    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    bench = load_benchmark()
    metrics = {}
    if not trace:
        values = {}
        for name in ("setup_s", "compile_s", "host_s"):
            values[name] = median([r["host"][name] for r in untraced])
        values.update(reps[0]["sim"] if reps else {})
        values["peak_rss_mb"] = done.get("peak_rss_mb", 0.0)
        values["success_frac"] = 1.0 - failed / attempted
        wanted = bench["end_to_end"]
    else:
        values = {}
        # A layer the workload bypasses reports 0.
        for m in bench["per_layer"]:
            values[m["name"]] = median(
                [r["layers"].get(m["name"], 0.0) for r in traced])
        values["trace.overhead_s"] = (
            median([r["host"]["host_s"] for r in traced])
            - median([r["host"]["host_s"] for r in untraced]))
        wanted = bench["per_layer"]
    for m in wanted:
        if m["name"] not in values:
            problems.append("metric %s was not measured" % m["name"])
            continue
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, problems, reps


def print_table(workload, result, reps):
    print("%s: %d repetitions" % (workload, len(reps)))
    for name, m in result["metrics"].items():
        print("  %-34s %18.6g %s" % (name, m["value"], m["unit"]))
    print("  %-34s %18.6g %s" % (
        "failed_frac", result["failed"] / result["attempted"], "fraction"))
    if reps:
        print("  inputs %s" % reps[0]["inputs"])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--all", action="store_true",
                        help="run every workload and print every metric")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--calibrate", action="store_true",
                        help="print the calibration of the serving constants")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    if not (args.all or args.calibrate or args.workload):
        parser.error("--workload, --all or --calibrate is required")

    if not (ROOT / "src" / "core" / "system.hh").exists():
        log("perfbench: the simulator sources (src/) are not next to "
            "perfbench/; run from a repository checkout")
        return 2
    started = time.monotonic()
    binary = build()
    if binary is None:
        log("perfbench: build failed")
        return 1
    log("perfbench: build ready in %.1fs" % (time.monotonic() - started))

    if args.calibrate:
        return subprocess.run([str(binary), "--calibrate", "--seed",
                               str(args.seed)]).returncode

    if args.all:
        summary = {}
        for workload in WORKLOADS:
            result, problems, reps = measure(binary, workload, args.seed,
                                             args.seconds, args.trace)
            print_table(workload, result, reps)
            for p in problems:
                log("  problem: %s" % p)
            summary[workload] = result
        print(json.dumps(summary))
        return 0 if all(r["correct"] for r in summary.values()) else 1

    result, problems, reps = measure(binary, args.workload, args.seed,
                                     args.seconds, args.trace,
                                     args.corrupt_expected)
    print_table(args.workload, result, reps)
    for p in problems:
        log("problem: %s" % p)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

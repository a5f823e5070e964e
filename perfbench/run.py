#!/usr/bin/env python3
"""Build and run the repository benchmark for one workload.

    python3 perfbench/run.py --workload ecma-1e5 --seed 1 --seconds 40 --trace 0

Run from the repository root. The first run configures and builds
perfbench/ (and the simulator library it compiles from src/) into
.bench_build/perfbench; later runs rebuild incrementally. The benchmark
binary runs the workload and checks its outputs; this script checks that
the metrics it printed are exactly the ones BENCHMARK.json declares for
the mode (end_to_end with --trace 0, per_layer with --trace 1), with the
declared units, and prints the result JSON as the last line of stdout.

Extra options are passed through to the binary: --profile-seed,
--storm-seed and --smoke (a ~1e3-AD size of every workload that runs in
seconds). The probe flows are drawn from --seed.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_ROOT = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
BUILD_DIR = BUILD_ROOT / "perfbench"
BINARY = BUILD_DIR / "idr_perfbench"

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def die(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        die("simulator sources (src/) not found next to perfbench/", 2)
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr,
                       timeout=BUILD_TIMEOUT_S)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", str(BUILD_DIR), "-j", jobs],
                   check=True, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check_result(result, trace):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        die(f"unexpected result keys {sorted(result)}")
    if result["correct"] is not True:
        die("the benchmark reported incorrect outputs")
    attempted, failed = result["attempted"], result["failed"]
    if attempted < 1 or not 0 <= failed <= attempted:
        die("attempted/failed counts are inconsistent")
    want = declared_metrics(trace)
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(n for n in set(want) & set(got) if want[n] != got[n])
        die(f"metrics differ from BENCHMARK.json: missing={missing} "
            f"extra={extra} unit-mismatch={units}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0],
                                 allow_abbrev=False)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, passthrough = ap.parse_known_args()

    try:
        build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        die(f"build failed: {e}")

    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = BUILD_ROOT / "spans" / f"{args.workload}.tsv"
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    cmd += passthrough
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    if proc.returncode != 0:
        die(f"benchmark exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        die("benchmark printed no result")
    result = json.loads(lines[-1])
    check_result(result, args.trace)
    print(lines[-1])


if __name__ == "__main__":
    main()

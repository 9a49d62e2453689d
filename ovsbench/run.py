#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see ovsbench/README.md).

    python3 ovsbench/run.py --workload serve_open --seed 1 --seconds 10 --trace 0

Run from the repository root. The first call configures and builds the OVS
libraries and the ovsbench binary under $CARGO_TARGET_DIR/ovsbench (default
.bench_build/ovsbench); later calls rebuild incrementally. The last line of
standard output is the run's JSON result. Exit codes: 0 ok, 1 an output
check failed, 2 build or usage error, 3 the open-loop run was invalid twice.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import time

WORKLOADS = ("serve_open", "recover_batch", "simulate_city")
RUN_TIMEOUT_S = 170
INVALID = 3  # ovsbench's exit code for an invalid open-loop run


def log(message):
    print(f"[run.py] {message}", file=sys.stderr, flush=True)


def build(root, build_dir):
    if not (root / "src" / "CMakeLists.txt").is_file():
        log(f"OVS sources not found under {root / 'src'}; nothing to build")
        return False
    if not (build_dir / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(root / "ovsbench"), "-B", str(build_dir),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return False
    jobs = str(os.cpu_count() or 1)
    compile_cmd = ["cmake", "--build", str(build_dir), "--target", "ovsbench",
                   "-j", jobs]
    return subprocess.run(compile_cmd, stdout=sys.stderr).returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    root = pathlib.Path(__file__).resolve().parent.parent
    target_dir = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target_dir.is_absolute():
        target_dir = root / target_dir
    build_dir = target_dir / "ovsbench"
    if not build(root, build_dir):
        log("build failed")
        return 2
    workdir = build_dir / "work"
    workdir.mkdir(parents=True, exist_ok=True)

    cmd = [str(build_dir / "ovsbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--workdir", str(workdir)]
    # An invalid run (the open loop did not keep its schedule) is not
    # recorded; it is made once more when that still fits the time limit.
    start = time.monotonic()
    for attempt in (1, 2):
        try:
            proc = subprocess.run(
                cmd, stdout=subprocess.PIPE, text=True,
                timeout=RUN_TIMEOUT_S - (time.monotonic() - start))
        except subprocess.TimeoutExpired:
            log(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
            return 2
        if proc.returncode != INVALID:
            break
        log("run invalid, not recorded")
        if attempt == 2 or time.monotonic() - start > RUN_TIMEOUT_S / 2:
            return INVALID
        log("running it once more")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        log(f"ovsbench exited {proc.returncode} without a result line")
        return proc.returncode or 2
    for line in lines:
        print(line)
    for name, metric in result["metrics"].items():
        log(f"{name:26s} {metric['value']:14.6g} {metric['unit']}")
    if not result["correct"]:
        log("an output check failed")
        return proc.returncode or 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Runs the benchmark on several seeds and reports each metric's spread.

    python3 ovsbench/spread.py --workload serve_open --seeds 10
    python3 ovsbench/spread.py --workload all --seeds 10 --first-seed 101

For each end-to-end metric it prints the median over the runs and the
quartile spread: (Q3 - Q1) / median with the quartiles of
statistics.quantiles(values, n=4). A spread above a third of the metric's
bound in BENCHMARK.json is flagged, as is one above the bound itself.
Run from the repository root.
"""

import argparse
import json
import pathlib
import statistics
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent


def quartile_spread(values):
    """(Q3 - Q1) / median, the run-to-run spread of one metric."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = ([w["name"] for w in spec["workloads"]]
                 if args.workload == "all" else [args.workload])
    ok = True
    for workload in workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            result = run_once(workload, seed, seconds)
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{n}={v[-1]:.5g}" for n, v in values.items()), flush=True)
        print(f"== {workload} ({args.seeds} seeds, {seconds} s)")
        for name, vals in values.items():
            spread = quartile_spread(vals)
            flag = ""
            if spread > bounds[name]:
                flag, ok = "  OVER BOUND", False
            elif spread > bounds[name] / 3:
                flag = "  over a third of the bound"
            print(f"  {name:22s} median {statistics.median(vals):12.6g}  "
                  f"spread {spread:7.4f}  bound {bounds[name]:.2f}{flag}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

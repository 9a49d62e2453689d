#!/usr/bin/env python3
"""Interleaved A/B pairs of the repo benchmark between two git revisions.

    python3 tools/ab/ab_pairs.py --parent HEAD~1 --change HEAD \\
        --workload simulate_city --seeds 10 --first-seed 101

Each revision is exported with `git archive` into its own directory under
--workdir and builds its own ovsbench tree there (CARGO_TARGET_DIR points
into that directory), so neither side sees the other's sources or objects.
Both sides first make one discarded `--seconds 1` run, which builds them.
Then, for each seed, each side runs `ovsbench/run.py --trace 0` once; the
parent runs first on even-numbered pairs and the change on odd ones, so
a drift of the host's speed does not fall on one side only.

For every end-to-end metric in BENCHMARK.json it prints each side's median
and quartiles (statistics.quantiles, n=4, as ovsbench/spread.py uses), the
change's relative difference and its win count over the pairs (direction
from BENCHMARK.json; a tie counts for neither side), and two verdicts:

  gain   the change wins at least 9 of every 10 pairs and its median beats
         the parent's by more than the parent's Q3 - Q1;
  worse  the change's median is worse than the parent's by more than the
         metric's bound, read as a fraction of the parent's median.

With --per-layer, each seed also gets one `--trace 1` run per side, in
the same alternating order, and a second table lists every per-layer
metric in BENCHMARK.json: each side's median and quartiles, and for
count-unit metrics whether every seed read the same on both sides. A
single traced run is too noisy to judge on its own, so per-layer rows get
no gain or worse verdict; they say where an end-to-end change came from.

To measure uncommitted work, stage it and pass a commit object made
without touching any branch: `git add -A && --change "$(git stash create)"`.
Run from anywhere inside the repository. Exit codes: 0 done, 1 a run
failed or a metric is worse beyond its bound, 2 usage or export error.
"""

import argparse
import io
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile

MIN_WIN_FRACTION = 0.9


def quartiles(values):
    """(Q1, median, Q3) of the values, exclusive-method quartiles."""
    if len(values) < 2:
        v = values[0]
        return v, v, v
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def is_better(a, b, better):
    """True when value `a` is strictly better than `b`."""
    return a < b if better == "lower" else a > b


def win_count(parent, change, better):
    """Pairs the change wins; a tie counts for neither side."""
    return sum(is_better(c, p, better) for p, c in zip(parent, change))


def gain_holds(parent, change, better):
    """Wins in >= 9/10 of the pairs and a median gap beyond the parent's IQR."""
    wins = win_count(parent, change, better)
    p_q1, p_med, p_q3 = quartiles(parent)
    c_med = statistics.median(change)
    gap = p_med - c_med if better == "lower" else c_med - p_med
    return (wins >= math.ceil(MIN_WIN_FRACTION * len(parent))
            and gap > p_q3 - p_q1)


def relative_worsening(parent, change, better):
    """How much worse the change's median is, as a fraction of the parent's
    median; negative when it is better."""
    p_med = statistics.median(parent)
    c_med = statistics.median(change)
    worse = c_med - p_med if better == "lower" else p_med - c_med
    if p_med == 0:
        return math.inf if worse > 0 else (0.0 if worse == 0 else -math.inf)
    return worse / abs(p_med)


def summarize(metric, parent, change):
    """One metric's row: `metric` is its BENCHMARK.json entry, `parent` and
    `change` its values per pair, in pair order."""
    better = metric["better"]
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "parent": quartiles(parent),
        "change": quartiles(change),
        "wins": win_count(parent, change, better),
        "pairs": len(parent),
        "identical": parent == change,
        "gain": gain_holds(parent, change, better),
        "worse": relative_worsening(parent, change, better) > metric["bound"],
    }


def summarize_layer(metric, parent, change):
    """One per-layer metric's row, with no verdict: each side's quartiles,
    and for count-unit metrics whether every seed read the same on both
    sides (None for the other units)."""
    return {
        "name": metric["name"],
        "unit": metric["unit"],
        "parent": quartiles(parent),
        "change": quartiles(change),
        "identical": parent == change if metric["unit"] == "count" else None,
    }


def format_side(q):
    return f"{q[1]:10.5g} [{q[0]:.5g}, {q[2]:.5g}]"


def format_medians(row):
    """Name, both sides' medians and quartiles, and the relative change."""
    p_med = row["parent"][1]
    rel = (row["change"][1] - p_med) / abs(p_med) if p_med else math.nan
    name = f"{row['name']} ({row['unit']})"
    return (f"  {name:26s} {format_side(row['parent']):32s} "
            f"{format_side(row['change']):32s} {rel:+8.3f}")


def format_row(row):
    wins = "identical" if row["identical"] else f"{row['wins']}/{row['pairs']}"
    return (f"{format_medians(row)} {wins:>9s}  "
            f"{'yes' if row['gain'] else 'no':4s} "
            f"{'YES' if row['worse'] else 'no'}")


def format_layer_row(row):
    if row["identical"] is None:
        return format_medians(row)
    return (f"{format_medians(row)} "
            f"{'identical' if row['identical'] else 'differs':>9s}")


def export_revision(repo, rev, dest):
    """Writes the tree of `rev` into `dest` with git archive."""
    archive = subprocess.run(["git", "-C", str(repo), "archive", "--format=tar",
                              rev], stdout=subprocess.PIPE, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_side(tree, workload, seed, seconds, trace=0):
    """One run.py call in `tree`; returns its result dict, or None."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(tree / ".bench_build"))
    cmd = [sys.executable, str(tree / "ovsbench" / "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"  {tree.name} seed {seed}: exit {proc.returncode}, no result",
              flush=True)
        return None
    if proc.returncode != 0 or not result["correct"]:
        print(f"  {tree.name} seed {seed}: exit {proc.returncode}, "
              f"correct={result['correct']}", flush=True)
    return result


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="base revision")
    parser.add_argument("--change", required=True, help="revision measured")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--workdir", default=None,
                        help="where the two trees go (default: a new temp dir)")
    parser.add_argument("--per-layer", action="store_true",
                        help="also one traced run per side and seed, and a "
                             "table of the per-layer metrics")
    args = parser.parse_args()

    repo = pathlib.Path(subprocess.run(
        ["git", "rev-parse", "--show-toplevel"], stdout=subprocess.PIPE,
        text=True, check=True).stdout.strip())
    workdir = pathlib.Path(args.workdir or tempfile.mkdtemp(prefix="ab_pairs_"))
    trees = {"parent": workdir / "parent", "change": workdir / "change"}
    try:
        for side, rev in (("parent", args.parent), ("change", args.change)):
            export_revision(repo, rev, trees[side])
    except (subprocess.CalledProcessError, FileExistsError) as err:
        print(f"export failed: {err}", file=sys.stderr)
        return 2
    # The parent's metrics, directions and bounds are the ones a change is
    # judged by.
    spec = json.loads((trees["parent"] / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    print(f"trees in {workdir}; {args.workload}, {args.seeds} seeds from "
          f"{args.first_seed}, {seconds} s per run", flush=True)

    for side, tree in trees.items():
        if run_side(tree, args.workload, args.first_seed, 1) is None:
            print(f"{side} does not build or run", file=sys.stderr)
            return 1

    runs = []
    traced_runs = []
    failed = False
    for i in range(args.seeds):
        seed = args.first_seed + i
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for trace in (0, 1) if args.per_layer else (0,):
            pair = {side: run_side(trees[side], args.workload, seed, seconds,
                                   trace)
                    for side in order}
            if any(r is None or not r["correct"] for r in pair.values()):
                failed = True
            if any(r is None for r in pair.values()):
                continue
            if trace:
                traced_runs.append(pair)
                print(f"seed {seed} ({order[0]} first): traced pair done",
                      flush=True)
                continue
            runs.append(pair)
            print(f"seed {seed} ({order[0]} first): " + "  ".join(
                f"{m['name']}={pair['parent']['metrics'][m['name']]['value']:.5g}"
                f"->{pair['change']['metrics'][m['name']]['value']:.5g}"
                for m in spec["end_to_end"]), flush=True)
    if not runs:
        print("no complete pair", file=sys.stderr)
        return 1

    print(f"== {args.workload}: {len(runs)} pairs, parent {args.parent}, "
          f"change {args.change}")
    print(f"  {'metric':26s} {'parent median [Q1, Q3]':32s} "
          f"{'change median [Q1, Q3]':32s} {'rel':>8s} {'wins':>9s}  "
          f"gain worse")
    any_worse = False
    for metric in spec["end_to_end"]:
        values = {side: [r[side]["metrics"][metric["name"]]["value"]
                         for r in runs] for side in trees}
        row = summarize(metric, values["parent"], values["change"])
        any_worse |= row["worse"]
        print(format_row(row))
    if traced_runs:
        print(f"== {args.workload} per layer: {len(traced_runs)} traced pairs "
              "(no verdict)")
        print(f"  {'metric':26s} {'parent median [Q1, Q3]':32s} "
              f"{'change median [Q1, Q3]':32s} {'rel':>8s} {'per seed':>9s}")
        for metric in spec["per_layer"]:
            values = {side: [r[side]["metrics"][metric["name"]]["value"]
                             for r in traced_runs] for side in trees}
            print(format_layer_row(
                summarize_layer(metric, values["parent"], values["change"])))
    return 1 if failed or any_worse else 0


if __name__ == "__main__":
    sys.exit(main())

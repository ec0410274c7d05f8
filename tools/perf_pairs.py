#!/usr/bin/env python3
"""Alternating A/B perfbench runs: a parent git ref against the working tree.

Run from the repository root::

    python3 tools/perf_pairs.py --parent HEAD~1 --workload fault_farm \\
        --seed 1 --seconds 20 --pairs 10

Both sides are checked out with ``git worktree add`` into sibling
directories of one temporary directory, ``parent`` and ``change``
(removed on exit), so the two runs see the same checkout layout and path
depth.  The change side is the working tree as ``git stash create``
records it (``HEAD`` when the tree is clean): tracked and staged files,
so ``git add`` new files first.  Each pair runs
``perfbench/run.py --trace 0`` once in each worktree; odd pairs run the
parent first, even pairs the change.  Prints every run's end-to-end
metrics (names and directions from ``BENCHMARK.json``), then per metric
the medians, the parent's interquartile range and how many pairs the
change won.

With ``--trace 1`` each pair also runs ``perfbench/run.py --trace 1`` in
both trees, and a second table gives the median of every ``per_layer``
metric of ``BENCHMARK.json`` that is nonzero on either side, parent ->
change, so a speed claim can name the layer that moved (for a farm
change, ``farm.worker_busy_frac`` and ``serde.encode_s``)::

    python3 tools/perf_pairs.py --parent HEAD~1 --workload fault_farm \
        --seconds 10 --pairs 10 --trace 1

Exits 1 if any run is not ``correct: true``.  Standard library only.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True,
                        help="git ref to compare the working tree against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: also run traced pairs and print the "
                             "per-layer medians")
    return parser.parse_args(argv)


def perfbench(tree, args, trace=0):
    """One perfbench run in ``tree``; returns its final JSON line."""
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                         text=True).stdout
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "metrics": {}, "output": out[-500:]}


def iqr(values):
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def report(metrics, runs):
    """Print every run, then per-metric medians, parent IQR and wins."""
    for pair, (parent, change) in enumerate(runs, 1):
        for side, result in (("parent", parent), ("change", change)):
            values = " ".join(
                f"{name}={result['metrics'].get(name, {}).get('value', 'NA')}"
                for name, _ in metrics)
            print(f"pair {pair:2d} {side} correct={result['correct']} "
                  f"{values}")
    print(f"{'metric':<16}{'parent':>12}{'change':>12}{'diff':>9}"
          f"{'parent IQR':>12}  wins")
    for name, better in metrics:
        pairs = [(parent["metrics"][name]["value"],
                  change["metrics"][name]["value"])
                 for parent, change in runs
                 if name in parent["metrics"] and name in change["metrics"]]
        if not pairs:
            continue
        olds = [old for old, _ in pairs]
        news = [new for _, new in pairs]
        old, new = statistics.median(olds), statistics.median(news)
        sign = 1 if better == "higher" else -1
        wins = sum(sign * (b - a) > 0 for a, b in pairs)
        diff = f"{100.0 * (new - old) / old:+.1f}%" if old else "NA"
        print(f"{name:<16}{old:>12.4g}{new:>12.4g}{diff:>9}"
              f"{iqr(olds):>12.4g}  {wins}/{len(pairs)}")


def report_layers(layers, runs):
    """Per-layer medians of the traced runs, parent -> change."""
    print(f"{'per-layer metric':<34}{'parent':>12}{'change':>12}{'diff':>9}")
    for name in layers:
        olds = [p["metrics"][name]["value"] for p, _ in runs
                if name in p["metrics"]]
        news = [c["metrics"][name]["value"] for _, c in runs
                if name in c["metrics"]]
        if not olds or not news:
            continue
        old, new = statistics.median(olds), statistics.median(news)
        if not old and not new:
            continue
        diff = f"{100.0 * (new - old) / old:+.1f}%" if old else "NA"
        print(f"{name:<34}{old:>12.4g}{new:>12.4g}{diff:>9}")


def working_tree_commit():
    """A commit holding the working tree's tracked and staged files."""
    stash = subprocess.run(["git", "stash", "create"], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE, text=True).stdout.strip()
    return stash or "HEAD"


def main(argv=None):
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = [(entry["name"], entry["better"])
               for entry in spec["end_to_end"]]
    layers = [entry["name"] for entry in spec["per_layer"]]
    scratch = tempfile.mkdtemp(prefix="perf_pairs_")
    trees = {"parent": args.parent, "change": working_tree_commit()}
    runs, traced, added = [], [], []
    try:
        for side, ref in trees.items():
            trees[side] = os.path.join(scratch, side)
            subprocess.run(["git", "worktree", "add", "--detach", trees[side],
                            ref], cwd=ROOT, check=True,
                           stdout=subprocess.DEVNULL)
            added.append(trees[side])
        for pair in range(1, args.pairs + 1):
            order = list(trees.items())
            if pair % 2 == 0:
                order.reverse()
            results, layered = {}, {}
            for side, tree in order:
                results[side] = perfbench(tree, args)
                if args.trace:
                    layered[side] = perfbench(tree, args, trace=1)
                print(f"pair {pair} {side} done", file=sys.stderr,
                      flush=True)
            runs.append((results["parent"], results["change"]))
            if args.trace:
                traced.append((layered["parent"], layered["change"]))
    finally:
        for worktree in added:
            subprocess.run(["git", "worktree", "remove", "--force", worktree],
                           cwd=ROOT, stdout=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)
    report(metrics, runs)
    if traced:
        report_layers(layers, traced)
    correct = all(side["correct"] is True
                  for pair in runs + traced for side in pair)
    if not correct:
        print("a run reported correct: false", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

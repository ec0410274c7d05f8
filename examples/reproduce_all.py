#!/usr/bin/env python3
"""Regenerate every table in EXPERIMENTS.md in one command.

Runs the complete benchmark harness with table output enabled, then the
full unit-test suite.

Exit codes distinguish the failure class:

- 0: every experiment shape holds and (without ``--quick``) all tests pass
- 2: experiment shape regression (a bench assertion failed, or a bench
  shard crashed/timed out)
- 3: benches hold but the unit/property test suite failed

Flags:

- ``--quick``: skip the unit-test suite, and run the benches in one
  plain pass without ``--benchmark-disable-gc`` (that flag exists to
  stabilize timing numbers; quick mode trades that stability for less
  overhead).
- ``--jobs N``: shard the bench files across ``N`` farm workers
  (:mod:`repro.farm`).  Each shard is one pytest process over one bench
  file, writing its BENCH_RESULTS records to a private file
  (``REPRO_BENCH_RESULTS``) that the parent merges afterwards -- no
  read-modify-write race on the shared history.  Set
  ``REPRO_FARM_CACHE=<dir>`` to cache shard results content-addressed
  (a re-run with unchanged code executes zero shards).

Run:  python examples/reproduce_all.py [--quick] [--jobs N]
"""

import argparse
import glob
import json
import os
import subprocess
import sys
import tempfile

_REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if os.path.join(_REPO, "src") not in sys.path:
    sys.path.insert(0, os.path.join(_REPO, "src"))

EXIT_OK = 0
EXIT_SHAPE_REGRESSION = 2
EXIT_TEST_FAILURE = 3


def _bench_flags(quick: bool) -> list:
    flags = ["--benchmark-only", "-p", "no:cacheprovider", "-q", "-s"]
    if not quick:
        flags.append("--benchmark-disable-gc")
    return flags


def _shard_results_path(bench_file: str) -> str:
    stem = os.path.splitext(os.path.basename(bench_file))[0]
    shard_dir = os.path.join(tempfile.gettempdir(), "repro-bench-shards")
    os.makedirs(shard_dir, exist_ok=True)
    return os.path.join(shard_dir, f"{stem}.json")


def run_bench_shard(config, seed):
    """Farm job: run one bench file in its own pytest process.

    Returns plain JSON (returncode + captured output + where the shard
    wrote its BENCH_RESULTS records) so shards cache and aggregate
    deterministically by (file, flags).
    """
    bench_file = config["file"]
    results_path = _shard_results_path(bench_file)
    try:
        os.unlink(results_path)
    except OSError:
        pass
    env = dict(os.environ)
    env["REPRO_BENCH_RESULTS"] = results_path
    env.setdefault("PYTHONPATH", os.path.join(_REPO, "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", bench_file] + list(config["flags"]),
        check=False, cwd=_REPO, env=env,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    return {"file": config["file"], "returncode": proc.returncode,
            "output": proc.stdout, "results_path": results_path}


def _merge_shard_results(shard_paths) -> None:
    """Fold per-shard BENCH_RESULTS files into the shared history, using
    the bench conftest's own loader/rotation rules."""
    sys.path.insert(0, os.path.join(_REPO, "benchmarks"))
    try:
        import conftest as bench_conftest
    finally:
        sys.path.pop(0)
    series = bench_conftest._load_series()
    merged = 0
    for path in shard_paths:
        try:
            with open(path) as handle:
                shard = json.load(handle)
        except (OSError, ValueError):
            continue
        for nodeid, history in (shard.get("benches") or {}).items():
            if not isinstance(history, list):
                continue
            target = series.setdefault(nodeid, [])
            target.extend(history)
            del target[:-bench_conftest._MAX_RUNS_PER_BENCH]
            merged += 1
    if merged:
        with open(bench_conftest._results_file(), "w") as handle:
            json.dump({"benches": series}, handle, indent=2)
            handle.write("\n")


def _run_benches_farm(jobs: int, quick: bool,
                      backend: str = "auto") -> int:
    from repro.farm import Campaign

    bench_files = sorted(
        os.path.relpath(path, _REPO) for path in
        glob.glob(os.path.join(_REPO, "benchmarks", "test_bench_*.py")))
    if not bench_files:
        print("no bench files found")
        return EXIT_SHAPE_REGRESSION
    campaign = Campaign.build("reproduce-benches", jobs=jobs,
                              backend=backend,
                              cache=os.environ.get("REPRO_FARM_CACHE"))
    flags = _bench_flags(quick)
    for bench_file in bench_files:
        campaign.add(run_bench_shard,
                     config={"file": bench_file, "flags": flags},
                     name=bench_file)
    result = campaign.run()
    failed = False
    for outcome in result.outcomes:
        label = outcome.job.name
        if outcome.failure is not None:
            failed = True
            print(f"-- {label}: {outcome.failure.kind}: "
                  f"{outcome.failure.message}")
            continue
        payload = outcome.result
        cached = " (cached)" if outcome.cached else ""
        print(f"-- {label}{cached}: exit {payload['returncode']}")
        if payload["returncode"] != 0:
            failed = True
            print(payload["output"])
        elif payload["output"].strip():
            print(payload["output"])
    _merge_shard_results(
        outcome.result["results_path"] for outcome in result.outcomes
        if outcome.ok and not outcome.cached)
    stats = result.stats()
    print(f"[farm] {stats['jobs']} shards: {stats['executed']} executed, "
          f"{stats['cached']} cached, {stats['failed']} failed "
          f"({stats['workers']} workers, {stats['wall_seconds']:.1f}s)")
    return EXIT_SHAPE_REGRESSION if failed else EXIT_OK


def _run_benches_serial(quick: bool) -> int:
    bench = subprocess.run(
        [sys.executable, "-m", "pytest", "benchmarks/"]
        + _bench_flags(quick),
        check=False, cwd=_REPO)
    return EXIT_OK if bench.returncode == 0 else EXIT_SHAPE_REGRESSION


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="skip unit tests and the disable-gc "
                             "double-run overhead")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="shard bench files over N farm workers")
    parser.add_argument("--backend", default="auto",
                        choices=["auto", "inline", "daemon"],
                        help="farm executor backend for --jobs runs")
    args = parser.parse_args()

    print("=" * 70)
    print("Reproducing every experiment (benchmarks/ -> EXPERIMENTS.md)")
    print("=" * 70)
    if args.jobs is not None:
        status = _run_benches_farm(args.jobs, args.quick,
                                   backend=args.backend)
    else:
        status = _run_benches_serial(args.quick)
    if status != EXIT_OK:
        print("\nEXPERIMENT SHAPE REGRESSION -- see failures above.")
        return status
    if args.quick:
        print("\nAll experiment shapes hold. (--quick: skipping unit tests)")
        return EXIT_OK
    print()
    print("=" * 70)
    print("Running the full unit/property test suite (tests/)")
    print("=" * 70)
    tests = subprocess.run(
        [sys.executable, "-m", "pytest", "tests/", "-p", "no:cacheprovider",
         "-q"],
        check=False, cwd=_REPO)
    if tests.returncode != 0:
        return EXIT_TEST_FAILURE
    print("\nAll experiment shapes hold and all tests pass.")
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())

#!/usr/bin/env python3
"""Differential fuzzing, end to end: generate -> compare -> shrink -> pin.

Sweeps seeded random scenarios through every execution path the repo
has -- the mini-C interpreter and all three ISS backends (reference,
compiled, vector) -- and compares final register files, RAM,
cycle counts and the exact bus-access order.  Any divergence is
automatically minimized by the shrinker and printed as a ready-to-pin
pytest regression for ``tests/test_fuzz_regressions.py``.

The sweep is a pure function of the seed range: re-running the same
command replays byte-identically (same aggregate hash), across any
``--jobs`` count and across cold/warm ``--cache`` runs.

Run:  python examples/fuzz_hunt.py --programs 200 --jobs 4
Exit: 0 clean, 1 divergence found (repro + pinned test printed).
"""

import argparse
import sys

from repro.farm import Executor
from repro.gen import (
    emit_regression_test,
    run_fuzz_campaign,
    shrink_scenario,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="differential fuzz hunt across interp + ISS backends")
    parser.add_argument("--programs", type=int, default=200,
                        help="number of seeds to sweep (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed; seeds run [seed, seed+programs)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="farm worker processes (default 1)")
    parser.add_argument("--cache", default=None, action="append",
                        help="farm result-cache directory (repeatable: "
                             "first=local tier, later=shared tiers)")
    parser.add_argument("--backend", default=None,
                        choices=["inline", "fork", "daemon"],
                        help="farm executor backend (default: auto)")
    parser.add_argument("--shards", type=int, default=None,
                        help="work-stealing shards over the job list")
    parser.add_argument("--kind", choices=["firmware", "expr", "both"],
                        default="both",
                        help="scenario kind to generate (default both)")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report divergences without minimizing them")
    args = parser.parse_args(argv)

    kinds = {"firmware": ("firmware",), "expr": ("expr",),
             "both": ("firmware", "expr")}[args.kind]
    executor = None
    if args.jobs != 1 or args.cache or args.backend or args.shards:
        cache = None
        if args.cache:
            cache = args.cache[0] if len(args.cache) == 1 else args.cache
        executor = Executor(jobs=args.jobs, cache=cache,
                            backend=args.backend or "auto",
                            shards=args.shards)

    report = run_fuzz_campaign(args.programs, base_seed=args.seed,
                               kinds=kinds, executor=executor)
    stats = report["stats"]
    print(f"swept {report['programs']} programs "
          f"(seeds {args.seed}..{args.seed + args.programs - 1}, "
          f"kinds {'+'.join(kinds)}) in {stats['wall_seconds']:.2f}s: "
          f"{report['divergences']} divergence(s), "
          f"{stats['cached']} cached, aggregate {report['aggregate_sha']}")

    if not report["divergences"]:
        return 0

    for result in report["divergent"]:
        scenario = result["scenario"]
        print(f"\n== divergence at seed {result['seed']} "
              f"(kind {scenario['kind']}) ==")
        for mismatch in result["mismatches"]:
            print(f"  {mismatch}")
        if args.no_shrink:
            continue
        print("shrinking ...")
        shrunk = shrink_scenario(scenario)
        if shrunk["kind"] == "firmware":
            for core, source in sorted(shrunk["programs"].items()):
                print(f"--- core {core} (minimized) ---")
                print(source)
        else:
            print(f"minimized args: {shrunk['args']}")
            print(shrunk["c_source"])
        print("--- pinned regression (fix the bug, then add this to "
              "tests/test_fuzz_regressions.py) ---")
        name = f"seed_{result['seed']}".replace("-", "minus_")
        print(emit_regression_test(shrunk, name))
    return 1


if __name__ == "__main__":
    sys.exit(main())

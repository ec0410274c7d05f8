#!/usr/bin/env python3
"""Architecture exploration over a model-generated CIC application.

Chains two of section V's roads: the Figure-2 "Automatic Code Generation"
front end (an SDF model becomes CIC automatically) and the explicitly
future-work "exploration of optimal target architecture" (one CIC spec,
many candidate architecture files, Pareto front of cost vs speed).

Run:  python examples/architecture_explorer.py [--jobs N] [--cache DIR]

``--jobs N`` shards the candidate evaluations across N farm worker
processes (`repro.farm`); ``--cache DIR`` reuses completed points across
runs.  The Pareto front is identical at any worker count.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from repro.dataflow import SDFGraph
from repro.hopes import (
    cell_candidates, cic_from_sdf, explore_architectures, smp_candidates,
)

FIR_BODY = """
int task_go() {
  int v; int i; int acc;
  v = read_port(0);
  acc = v;
  for (i = 0; i < 50; i++) { acc = (acc * 5 + i) % 509; }
  write_port(0, acc);
  return 0;
}
"""


def build_model() -> SDFGraph:
    graph = SDFGraph("audiopath")
    for actor in ("mic", "agc", "fir", "eq", "dac"):
        graph.add_actor(actor)
    for src, dst in zip(("mic", "agc", "fir", "eq"),
                        ("agc", "fir", "eq", "dac")):
        graph.connect(src, dst, 1, 1)
    return graph


def app_factory():
    return cic_from_sdf(build_model(),
                        bodies={"agc": FIR_BODY, "fir": FIR_BODY,
                                "eq": FIR_BODY})


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="evaluate candidates on N farm workers")
    parser.add_argument("--cache", default=None, metavar="DIR",
                        help="farm result-cache directory")
    parser.add_argument("--backend", default=None,
                        choices=["inline", "daemon"],
                        help="farm executor backend (default: auto)")
    args = parser.parse_args()
    executor = None
    if args.jobs is not None or args.cache is not None \
            or args.backend is not None:
        from repro.farm import Executor
        executor = Executor(jobs=args.jobs or 1, cache=args.cache,
                            backend=args.backend or "auto")

    print("Model in: 5-actor SDF audio path; CIC generated automatically")
    app = app_factory()
    print(f"   generated tasks:    {sorted(app.tasks)}")
    print(f"   generated channels: {len(app.channels)}\n")

    candidates = smp_candidates(4) + cell_candidates(4)
    print(f"Exploring {len(candidates)} candidate architectures "
          f"(1-4 SMP CPUs, host+1-4 accelerators)...\n")
    result = explore_architectures(app_factory, candidates, iterations=24,
                                   executor=executor)
    if executor is not None:
        print(f"   (farm: {executor.jobs} worker(s), "
              f"backend={executor.resolved_backend()}, "
              f"cache={'on' if executor.cache_tier() else 'off'})\n")

    pareto = {p.label for p in result.pareto}
    print(f"{'architecture':<14}{'HW cost':>8}{'end time':>10}   Pareto")
    for point in sorted(result.points, key=lambda p: p.hardware_cost):
        marker = "  *" if point.label in pareto else ""
        print(f"{point.label:<14}{point.hardware_cost:>8.1f}"
              f"{point.end_time:>10.0f}{marker}")

    streams = {tuple(p.report.output_of("dac")) for p in result.points}
    print(f"\nIdentical output stream on all {len(result.points)} "
          f"architectures: {len(streams) == 1}")

    budget = 7.0
    pick = result.best_under_cost(budget)
    print(f"Recommended under a {budget:g}-unit hardware budget: "
          f"{pick.label} (end time {pick.end_time:.0f})")
    fastest = result.fastest()
    print(f"Fastest overall: {fastest.label} "
          f"(end time {fastest.end_time:.0f}, "
          f"cost {fastest.hardware_cost:.1f})")
    print(f"Mapping on the fastest point: {fastest.mapping}")


if __name__ == "__main__":
    main()

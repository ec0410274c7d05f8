"""F1 (farm): parallel campaign speedup with a byte-identical aggregate.

The paper's section-V pain point is that MPSoC experiments are slow and
irreproducible; `repro.farm` answers with campaigns that shard across
worker processes *without* changing the answer.  This bench runs a
multi-restart annealing sweep (8 independent restarts of a 20-task
mapping problem) three ways -- serial reference (``jobs=1``), a
4-worker pool, and a cache-warm re-run -- and asserts the determinism
contract on all three:

- the 4-worker aggregate is **byte-identical** to the serial one;
- the warm re-run executes **zero** jobs and still reproduces the bytes;
- on a machine with >= 4 usable CPUs, 4 workers deliver >= 2x wall-clock
  speedup over serial (on smaller machines the speedup is recorded but
  only sanity-bounded: byte-identity is the portable claim).
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time

from repro.farm import Campaign, Executor
from repro.maps.annealing import annealing_restart_job
from repro.maps.spec import PEClass, PlatformSpec
from repro.maps.taskgraph import TaskGraph

RESTARTS = 8
WORKERS = 4
ITERATIONS = 4000


def build_problem():
    """A 5-layer, 20-task mapping problem on a 4-PE platform."""
    graph = TaskGraph("f1")
    prev = []
    for layer in range(5):
        names = []
        for index in range(4):
            name = f"t{layer}_{index}"
            graph.add_task(name, cost=3.0 + (layer * 4 + index) % 5)
            for pred in prev:
                graph.connect(pred, name, words=4)
            names.append(name)
        prev = names
    platform = PlatformSpec.symmetric(4, PEClass.RISC)
    return graph, platform


def run_sweep(executor: Executor) -> tuple:
    graph, platform = build_problem()
    config = {"graph": graph.to_dict(), "platform": platform.to_dict(),
              "iterations": ITERATIONS}
    campaign = Campaign("f1-anneal", executor=executor)
    for seed in range(RESTARTS):
        campaign.add(annealing_restart_job, config=config, seed=seed,
                     name=f"anneal[{seed}]")
    started = time.perf_counter()
    result = campaign.run().raise_on_failure()
    return result, time.perf_counter() - started


def run_experiment():
    cache_dir = tempfile.mkdtemp(prefix="repro-farm-f1-")
    try:
        serial, serial_seconds = run_sweep(Executor(jobs=1))
        parallel, parallel_seconds = run_sweep(
            Executor(jobs=WORKERS, cache=cache_dir))
        warm, warm_seconds = run_sweep(
            Executor(jobs=WORKERS, cache=cache_dir))
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return (serial, serial_seconds, parallel, parallel_seconds,
            warm, warm_seconds)


def test_bench_f1_farm_speedup(benchmark, show, record_bench):
    (serial, serial_seconds, parallel, parallel_seconds,
     warm, warm_seconds) = benchmark.pedantic(run_experiment, rounds=1,
                                              iterations=1)
    cpus = len(os.sched_getaffinity(0))
    speedup = serial_seconds / max(parallel_seconds, 1e-9)

    show("F1: 8-restart annealing campaign, serial vs 4-worker farm",
         [["serial (jobs=1)", f"{serial_seconds:.2f}s",
           serial.executed, serial.cached, "reference"],
          [f"farm (jobs={WORKERS})", f"{parallel_seconds:.2f}s",
           parallel.executed, parallel.cached, f"{speedup:.2f}x"],
          ["farm, warm cache", f"{warm_seconds:.2f}s",
           warm.executed, warm.cached,
           f"{serial_seconds / max(warm_seconds, 1e-9):.1f}x"]],
         ["run", "wall", "executed", "cached", "speedup"])

    # Claim shape 1: parallelism never changes the answer -- the
    # 4-worker aggregate and the warm-cache aggregate are byte-identical
    # to the serial reference.
    assert parallel.aggregate_json() == serial.aggregate_json()
    assert warm.aggregate_json() == serial.aggregate_json()

    # Claim shape 2: the warm cache short-circuits the whole sweep.
    assert parallel.executed == RESTARTS
    assert warm.executed == 0 and warm.cached == RESTARTS

    # Claim shape 3: with >= 4 usable CPUs, 4 workers are >= 2x faster.
    # On smaller machines (CI runners, containers) real parallel speedup
    # is physically unavailable, so only a sanity bound applies there --
    # the recorded headline keeps the trajectory honest either way.
    if cpus >= WORKERS:
        assert speedup >= 2.0
    else:
        assert speedup > 0.2  # pool overhead must stay bounded

    record_bench(speedup=speedup, workers=WORKERS, cpus=cpus,
                 serial_seconds=serial_seconds,
                 parallel_seconds=parallel_seconds,
                 warm_seconds=warm_seconds)

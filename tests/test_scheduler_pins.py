"""Pinned outputs of the round-robin OS schedulers (section II).

``run_time_shared``, ``run_hybrid`` and ``run_resilient`` are digested
over a seeded grid of machines and job mixes in which every app is
placeable: per-app ``(name, arrival, finish)``, makespan, context
switches, every ``os.*`` instrument and every trace record.  The digests
were recorded before the time-shared loop became the resilient loop, so
any drift in what either policy schedules, counts or traces shows here.

The resilient digest leaves out the ``os.ready_depth`` gauge and the
``ready_depth`` counter series: the resilient loop gained them when it
became the only round-robin loop.  An instrument that was never touched
and one that reads zero are the same observation, so zero counters and
empty histograms are dropped from every digest.
"""

from __future__ import annotations

import hashlib
import random

from repro.desim import Simulator
from repro.faults import FaultInjector, FaultPlan
from repro.manycore import AppSpec, Machine
from repro.manycore.os_scheduler import (run_hybrid, run_resilient,
                                         run_time_shared)
from repro.obs.trace import TraceSink

GRID = 240
QUANTA = (0.5, 1.0, 2.0)
CTX_COSTS = (0.0, 0.01, 0.1)


def _machine(rng: random.Random) -> Machine:
    n_cores = rng.choice((2, 3, 4, 6))
    if rng.random() < 0.5:
        return Machine(n_cores)
    return Machine.heterogeneous(n_cores, {"isaA": 0.5, "isaB": 0.5},
                                 freqs={"isaA": 1.0, "isaB": 2.0})


def _apps(rng: random.Random, machine: Machine, max_threads: int):
    """A job mix whose every thread pin names an ISA of ``machine``."""
    isas = sorted({core.isa for core in machine.cores})
    apps = []
    for index in range(rng.randint(2, 7)):
        threads = rng.randint(1, max_threads)
        pins = None
        if len(isas) > 1 and rng.random() < 0.5:
            pins = [rng.choice(isas) for _ in range(threads)]
        deadline = rng.choice((None, round(rng.uniform(3.0, 40.0), 2)))
        apps.append(AppSpec(f"app{index}",
                            work=round(rng.uniform(0.5, 12.0), 3),
                            threads=threads,
                            arrival=rng.choice((0.0, round(
                                rng.uniform(0.0, 10.0), 2))),
                            deadline=deadline, rt=deadline is not None,
                            thread_isas=pins))
    return apps


def _hybrid_apps(rng: random.Random, machine: Machine, ts_cores: int):
    """Sequential apps fit the time-shared pool; parallel ones fit the
    space-shared rest (one free core per thread of each pinned ISA)."""
    ts_isas = {core.isa for core in machine.cores[:ts_cores]}
    ss_counts = {}
    for core in machine.cores[ts_cores:]:
        ss_counts[core.isa] = ss_counts.get(core.isa, 0) + 1
    apps = _apps(rng, machine, machine.n_cores - ts_cores)
    for app in apps:
        pins = app.thread_isas
        if pins is None:
            continue
        if app.sequential:
            fits = pins[0] in ts_isas
        else:
            fits = all(pins.count(isa) <= ss_counts.get(isa, 0)
                       for isa in set(pins))
        if not fits:
            app.thread_isas = None
    return apps


def _instruments(metrics, leave_out=()):
    rows = []
    for name, value in metrics.snapshot().items():
        if not name.startswith("os.") or name in leave_out:
            continue
        if value == 0 or (isinstance(value, dict)
                          and value.get("count") == 0):
            continue
        rows.append((name, value))
    return rows


def _records(sink: TraceSink, leave_out=()):
    return [(r.name, r.ph, r.ts, r.track, r.dur, sorted(r.args.items()))
            for r in sink.records if r.name not in leave_out]


def _digest_of(outcome, sink, leave_out_instruments=(),
               leave_out_records=()):
    row = (outcome.policy,
           [(r.name, r.arrival, r.finish) for r in outcome.results],
           outcome.makespan, outcome.context_switches,
           _instruments(outcome.metrics, leave_out_instruments),
           _records(sink, leave_out_records))
    return repr(row)


def _fault_plan(rng: random.Random, machine: Machine) -> FaultPlan:
    plan = FaultPlan(seed=rng.randrange(1 << 16))
    for core in rng.sample(range(machine.n_cores),
                           rng.randint(1, machine.n_cores - 1)):
        at = round(rng.uniform(0.5, 15.0), 2)
        if rng.random() < 0.5:
            plan.crash_core(core, at=at)
        else:
            plan.hang_core(core, at=at)
    return plan


def _grid_digest(policy: str) -> str:
    digest = hashlib.sha256()
    for seed in range(GRID):
        rng = random.Random(f"scheduler-pin:{seed}")
        machine = _machine(rng)
        quantum = rng.choice(QUANTA)
        ctx = rng.choice(CTX_COSTS)
        sink = TraceSink()
        if policy == "time_shared":
            outcome = run_time_shared(machine, _apps(rng, machine, 4),
                                      quantum, ctx, sink=sink)
            row = _digest_of(outcome, sink)
        elif policy == "hybrid":
            ts_cores = rng.randint(1, machine.n_cores - 1)
            outcome = run_hybrid(machine,
                                 _hybrid_apps(rng, machine, ts_cores),
                                 ts_cores=ts_cores, quantum=quantum,
                                 ctx_overhead=ctx, sink=sink)
            row = _digest_of(outcome, sink)
        else:
            apps = _apps(rng, machine, 4)
            injector = None
            if policy == "resilient_faults":
                injector = FaultInjector(Simulator(),
                                         _fault_plan(rng, machine),
                                         sink=sink)
            outcome = run_resilient(machine, apps, quantum, ctx,
                                    injector=injector, sink=sink)
            row = _digest_of(outcome, sink,
                             leave_out_instruments=("os.ready_depth",),
                             leave_out_records=("ready_depth",))
        digest.update(row.encode())
    return digest.hexdigest()[:16]


def test_time_shared_is_pinned():
    assert _grid_digest("time_shared") == "e075c0ed7c30c1fa"


def test_hybrid_is_pinned():
    assert _grid_digest("hybrid") == "a5b526e10ed186f8"


def test_resilient_without_faults_is_pinned():
    assert _grid_digest("resilient") == "02348668920f49eb"


def test_resilient_under_crashes_and_hangs_is_pinned():
    assert _grid_digest("resilient_faults") == "60443f00d6131d48"

"""Time-shared, space-shared and hybrid OS scheduling (section II).

Section II predicts applications will need two kinds of computing
resources:

- "a time-slice of a time-shared core" for sequential code, and
- "allocation of multiple space-shared cores completely dedicated to
  executing a single application" for parallel code,

and calls for "scheduling algorithms that can in a reactive way mitigate
multiple requests for parallel computing resources as well [as] sequential
computing resources".  This module implements all three policies on the
discrete-event kernel so the E3 bench can compare them on a mixed
workload:

- :func:`run_time_shared` -- everything round-robins on every core;
- :func:`run_space_shared` -- every app gets dedicated cores, queued EDF;
- :func:`run_hybrid` -- sequential apps time-share a small pool, parallel
  (real-time) apps space-share the rest;
- :func:`run_resilient` -- time-shared scheduling that survives injected
  core crashes/hangs: per-core heartbeat watchdogs detect a silent core,
  restart its in-flight task from the last slice boundary and migrate it
  to a surviving core (section II's "reactive" resource re-allocation).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Deque, Dict, List, Optional, Sequence

from repro.desim import Delay, Event, Simulator, WaitEvent
from repro.desim.watchdog import Watchdog
from repro.manycore.machine import Core, Machine
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink

if TYPE_CHECKING:  # pragma: no cover - typing only, no runtime dependency
    from repro.faults import FaultInjector


@dataclass
class AppSpec:
    """A one-shot application job.

    ``work`` is total base-core work units; a parallel app divides it
    evenly over ``threads`` threads.  ``thread_isas`` optionally pins each
    thread to an ISA (the heterogeneous a-priori partitioning of E1).
    ``deadline`` is relative to ``arrival``; ``rt`` marks apps whose
    deadline the OS must honour.
    """

    name: str
    work: float
    threads: int = 1
    arrival: float = 0.0
    deadline: Optional[float] = None
    rt: bool = False
    thread_isas: Optional[List[str]] = None
    # Optional recurrence: expand with `expand_periodic` before scheduling.
    period: Optional[float] = None

    def __post_init__(self) -> None:
        if self.work <= 0 or self.threads < 1:
            raise ValueError(f"app {self.name!r}: invalid work/threads")
        if self.thread_isas is not None and \
                len(self.thread_isas) != self.threads:
            raise ValueError(f"app {self.name!r}: thread_isas length "
                             f"must equal threads")

    @property
    def sequential(self) -> bool:
        return self.threads == 1

    def isa_of_thread(self, index: int) -> Optional[str]:
        if self.thread_isas is None:
            return None
        return self.thread_isas[index]


@dataclass
class AppResult:
    """Completion record of one app (``finish`` is ``inf`` when the app
    could never be placed, e.g. an ISA-pinned thread with no matching
    core)."""

    name: str
    arrival: float
    finish: float
    deadline: Optional[float]
    rt: bool
    threads: int = 1

    @property
    def sequential(self) -> bool:
        return self.threads == 1

    @property
    def response_time(self) -> float:
        return self.finish - self.arrival

    @property
    def deadline_met(self) -> Optional[bool]:
        if self.deadline is None and self.finish != float("inf"):
            return None
        if self.finish == float("inf"):
            return False
        return self.finish <= self.arrival + self.deadline + 1e-9


@dataclass
class ScheduleOutcome:
    """Aggregate result of one scheduling-policy run.

    ``metrics`` is the run's :class:`~repro.obs.MetricsRegistry`
    (context switches, migrations, ready-queue high-water mark, response
    time histogram); the scalar fields below are kept as convenience
    views of the same data.
    """

    policy: str
    results: List[AppResult] = field(default_factory=list)
    makespan: float = 0.0
    context_switches: int = 0
    metrics: Optional[MetricsRegistry] = None

    @property
    def deadline_misses(self) -> int:
        return sum(1 for r in self.results if r.deadline_met is False)

    @property
    def rt_deadline_misses(self) -> int:
        return sum(1 for r in self.results
                   if r.rt and r.deadline_met is False)

    def mean_response(self, sequential_only: bool = False) -> float:
        rows = [r for r in self.results
                if not sequential_only or r.sequential]
        if not rows:
            return 0.0
        return sum(r.response_time for r in rows) / len(rows)

    @property
    def unplaceable(self) -> int:
        return sum(1 for r in self.results if r.finish == float("inf"))

    def result_of(self, name: str) -> AppResult:
        for result in self.results:
            if result.name == name:
                return result
        raise KeyError(name)


class _Thread:
    def __init__(self, app: "_AppState", index: int, work: float,
                 isa: Optional[str]) -> None:
        self.app = app
        self.index = index
        self.remaining = work
        self.isa = isa
        self.last_core: Optional[int] = None  # migration detection


class _AppState:
    def __init__(self, spec: AppSpec) -> None:
        self.spec = spec
        self.unfinished = spec.threads
        self.finish: Optional[float] = None

    def make_threads(self) -> List[_Thread]:
        share = self.spec.work / self.spec.threads
        return [_Thread(self, i, share, self.spec.isa_of_thread(i))
                for i in range(self.spec.threads)]


def _record(outcome: ScheduleOutcome, state: _AppState, now: float) -> None:
    spec = state.spec
    outcome.results.append(AppResult(spec.name, spec.arrival, now,
                                     spec.deadline, spec.rt, spec.threads))
    if now != float("inf"):
        outcome.makespan = max(outcome.makespan, now)
        if outcome.metrics is not None:
            outcome.metrics.counter("os.completions").inc()
            outcome.metrics.histogram("os.response_time").observe(
                now - spec.arrival)


# ---------------------------------------------------------------------------
# time-shared round-robin
# ---------------------------------------------------------------------------

def run_time_shared(machine: Machine, apps: Sequence[AppSpec],
                    quantum: float = 1.0,
                    ctx_overhead: float = 0.01,
                    sink: Optional[TraceSink] = None,
                    metrics: Optional[MetricsRegistry] = None) -> ScheduleOutcome:
    """Global round-robin over all cores with a fixed quantum.

    This is :func:`run_resilient` with no faults to survive: its
    watchdogs cannot bite, since every slice kicks them well inside the
    timeout.  With a ``sink`` installed every executed time slice becomes
    a span on the ``os/core<N>`` track and the ready-queue depth a
    counter series; ``metrics`` (created if omitted) accumulates context
    switches, migrations and the ready-queue high-water mark.  An app
    with a thread no core can run is recorded with ``finish == inf``.
    """
    outcome = run_resilient(machine, apps, quantum, ctx_overhead,
                            sink=sink, metrics=metrics)
    outcome.policy = "time_shared"
    return outcome


def expand_periodic(apps: Sequence[AppSpec], horizon: float) -> List[AppSpec]:
    """Explode periodic app specs into the job stream up to ``horizon``.

    Section II's OS serves *recurring* real-time work; the one-shot
    schedulers above stay simple by scheduling jobs, and this helper turns
    ``AppSpec(period=...)``-annotated specs into per-release job instances
    (``name#k``, arrival ``k * period``, the spec's relative deadline).
    Specs without a period pass through unchanged.
    """
    jobs: List[AppSpec] = []
    for spec in apps:
        period = getattr(spec, "period", None)
        if period is None:
            jobs.append(spec)
            continue
        if period <= 0:
            raise ValueError(f"app {spec.name!r}: period must be positive")
        release = 0.0
        index = 0
        while release < horizon:
            jobs.append(AppSpec(f"{spec.name}#{index}", spec.work,
                                spec.threads, spec.arrival + release,
                                spec.deadline, spec.rt,
                                list(spec.thread_isas)
                                if spec.thread_isas else None))
            release += period
            index += 1
    return jobs


def _pop_matching(ready: Deque[_Thread], isa: str) -> Optional[_Thread]:
    for index, thread in enumerate(ready):
        if thread.isa is None or thread.isa == isa:
            del ready[index]
            return thread
    return None


# ---------------------------------------------------------------------------
# space-shared gang allocation (EDF among waiting apps)
# ---------------------------------------------------------------------------

def run_space_shared(machine: Machine, apps: Sequence[AppSpec],
                     dispatch_overhead: float = 0.01,
                     sink: Optional[TraceSink] = None,
                     metrics: Optional[MetricsRegistry] = None) -> ScheduleOutcome:
    """Dedicated-core gang allocation; waiting apps served EDF-first."""
    sim = Simulator()
    metrics = metrics if metrics is not None else MetricsRegistry()
    outcome = ScheduleOutcome("space_shared", metrics=metrics)
    free_cores: List[Core] = list(machine.cores)
    waiting: List[_AppState] = []
    change = Event("change")
    remaining_apps = len(apps)
    waiting_gauge = metrics.gauge("os.waiting_apps")
    dispatch_counter = metrics.counter("os.context_switches")

    def note_waiting() -> None:
        waiting_gauge.set(len(waiting))
        if sink is not None:
            sink.counter("waiting_apps", len(waiting), track="os",
                         ts=sim.now)

    def arrival_proc(spec: AppSpec):
        if spec.arrival > 0:
            yield Delay(spec.arrival)
        waiting.append(_AppState(spec))
        note_waiting()
        change.trigger(None)

    def _edf_key(state: _AppState):
        deadline = state.spec.deadline
        absolute = (state.spec.arrival + deadline) if deadline is not None \
            else float("inf")
        return (absolute, state.spec.arrival, state.spec.name)

    def try_place() -> Optional[tuple]:
        for state in sorted(waiting, key=_edf_key):
            chosen = _pick_cores(free_cores, state.spec)
            if chosen is not None:
                waiting.remove(state)
                note_waiting()
                return state, chosen
        return None

    def thread_proc(state: _AppState, thread: _Thread, core: Core):
        nonlocal remaining_apps
        duration = dispatch_overhead + thread.remaining / core.freq
        if sink is not None:
            sink.complete(f"{state.spec.name}.t{thread.index}",
                          ts=sim.now, dur=duration,
                          track=f"os/core{core.core_id}")
        yield Delay(duration)
        state.unfinished -= 1
        free_cores.append(core)
        if state.unfinished == 0:
            _record(outcome, state, sim.now)
            remaining_apps -= 1
        change.trigger(None)

    def allocator_proc():
        while remaining_apps > 0:
            placement = try_place()
            if placement is None:
                yield WaitEvent(change)
                continue
            state, chosen = placement
            for thread, core in zip(state.make_threads(), chosen):
                sim.spawn(thread_proc(state, thread, core),
                          name=f"{state.spec.name}.t{thread.index}")
            outcome.context_switches += len(chosen)
            dispatch_counter.inc(len(chosen))

    for spec in apps:
        sim.spawn(arrival_proc(spec), name=f"arrive.{spec.name}")
    sim.spawn(allocator_proc(), name="allocator")
    sim.run()
    # Apps still waiting when the system went idle can never be placed
    # (e.g. ISA-pinned threads with no matching core).
    for state in waiting:
        _record(outcome, state, float("inf"))
    return outcome


def _pick_cores(free_cores: List[Core], spec: AppSpec) -> Optional[List[Core]]:
    """Reserve one free core per thread, honouring per-thread ISA pins."""
    pool = list(free_cores)
    chosen: List[Core] = []
    for index in range(spec.threads):
        isa = spec.isa_of_thread(index)
        found = None
        for core in pool:
            if isa is None or core.isa == isa:
                found = core
                break
        if found is None:
            return None
        pool.remove(found)
        chosen.append(found)
    for core in chosen:
        free_cores.remove(core)
    return chosen


# ---------------------------------------------------------------------------
# hybrid: sequential apps time-share a pool, parallel apps space-share
# ---------------------------------------------------------------------------

def run_hybrid(machine: Machine, apps: Sequence[AppSpec],
               ts_cores: int = 1, quantum: float = 1.0,
               ctx_overhead: float = 0.01,
               dispatch_overhead: float = 0.01,
               sink: Optional[TraceSink] = None,
               metrics: Optional[MetricsRegistry] = None) -> ScheduleOutcome:
    """Hybrid policy: ``ts_cores`` cores round-robin the sequential apps,
    the remaining cores are gang-allocated (EDF) to parallel apps.

    This is the section-II proposal verbatim: sequential needs met with a
    time-slice of a time-shared core, parallel needs met with dedicated
    space-shared cores, managed reactively.
    """
    if not 0 < ts_cores < machine.n_cores:
        raise ValueError("ts_cores must leave at least one space-shared core")
    sequential = [a for a in apps if a.sequential]
    parallel = [a for a in apps if not a.sequential]
    ts_machine = Machine(ts_cores, cores=machine.cores[:ts_cores])
    ss_machine = Machine(machine.n_cores - ts_cores,
                         cores=machine.cores[ts_cores:])
    metrics = metrics if metrics is not None else MetricsRegistry()
    ts_outcome = run_time_shared(ts_machine, sequential, quantum,
                                 ctx_overhead, sink=sink, metrics=metrics)
    ss_outcome = run_space_shared(ss_machine, parallel, dispatch_overhead,
                                  sink=sink, metrics=metrics)
    merged = ScheduleOutcome("hybrid", metrics=metrics)
    merged.results = ts_outcome.results + ss_outcome.results
    merged.makespan = max(ts_outcome.makespan, ss_outcome.makespan)
    merged.context_switches = (ts_outcome.context_switches +
                               ss_outcome.context_switches)
    return merged


# ---------------------------------------------------------------------------
# resilient time-sharing: heartbeat watchdogs, task restart + migration
# ---------------------------------------------------------------------------

def run_resilient(machine: Machine, apps: Sequence[AppSpec],
                  quantum: float = 1.0,
                  ctx_overhead: float = 0.01,
                  heartbeat_timeout: Optional[float] = None,
                  injector: Optional["FaultInjector"] = None,
                  sink: Optional[TraceSink] = None,
                  metrics: Optional[MetricsRegistry] = None) -> ScheduleOutcome:
    """Round-robin time sharing that survives core crashes and hangs.

    Every core gets a :class:`~repro.desim.Watchdog` armed while it is
    executing slices and kicked at each slice boundary.  An ``injector``
    (see :mod:`repro.faults`) may crash a core (its process dies
    silently, mid-slice) or hang it (the process stalls at the next
    slice boundary without dying).  Either way the heartbeat stops, the
    watchdog bites, and recovery runs: the core is reaped, its in-flight
    thread is rolled back to the last slice boundary and re-queued, and
    a surviving core picks it up -- task restart plus migration, visible
    as ``recover.core_dead`` trace instants, ``os.core_deaths`` /
    ``os.task_restarts`` counters and the ``os.mttr`` histogram
    (fault-to-recovery sim time).

    ``heartbeat_timeout`` must exceed one slice duration
    (``quantum + ctx_overhead``); it defaults to three slice durations.
    A plan that kills every core, or a thread pinned to an ISA no core
    has, leaves the app recorded with ``finish == inf`` rather than
    deadlocking.  Slices, ready-queue depth (``os.ready_depth`` and the
    ``ready_depth`` series) and metrics are reported as in
    :func:`run_time_shared`, which is this loop without an injector.
    """
    slice_duration = quantum + ctx_overhead
    if heartbeat_timeout is None:
        heartbeat_timeout = 3.0 * slice_duration
    if heartbeat_timeout <= slice_duration:
        raise ValueError(
            f"heartbeat_timeout ({heartbeat_timeout}) must exceed one "
            f"slice duration ({slice_duration}) or every slice bites")
    sim = injector.sim if injector is not None else Simulator()
    metrics = metrics if metrics is not None else (
        injector.metrics if injector is not None else MetricsRegistry())
    if sink is None and injector is not None:
        sink = injector.sink
    outcome = ScheduleOutcome("resilient", metrics=metrics)
    ready: Deque[_Thread] = deque()
    states: List[_AppState] = []
    work_event = Event("work")
    remaining_apps = len(apps)
    ready_gauge = metrics.gauge("os.ready_depth")
    switch_counter = metrics.counter("os.context_switches")
    migration_counter = metrics.counter("os.migrations")
    restart_counter = metrics.counter("os.task_restarts")
    death_counter = metrics.counter("os.core_deaths")
    mttr_hist = metrics.histogram("os.mttr")

    core_procs: Dict[int, "Any"] = {}
    watchdogs: Dict[int, Watchdog] = {}
    dead: Dict[int, bool] = {}
    hung: Dict[int, bool] = {}
    fault_at: Dict[int, float] = {}
    # Per-core in-flight slice state, for restart-from-slice-boundary.
    current: Dict[int, Optional[_Thread]] = {}
    slice_start_remaining: Dict[int, float] = {}

    def note_ready_depth() -> None:
        ready_gauge.set(len(ready))
        if sink is not None:
            sink.counter("ready_depth", len(ready), track="os", ts=sim.now)

    def arrival_proc(spec: AppSpec):
        if spec.arrival > 0:
            yield Delay(spec.arrival)
        state = _AppState(spec)
        states.append(state)
        for thread in state.make_threads():
            ready.append(thread)
        note_ready_depth()
        work_event.trigger(None)

    def make_bite(core_id: int):
        def bite(wd: Watchdog) -> None:
            proc = core_procs.get(core_id)
            if proc is not None and proc.alive:
                sim.kill(proc)
            dead[core_id] = True
            death_counter.inc()
            thread = current.get(core_id)
            current[core_id] = None
            # MTTR from the injected fault time when known, else from
            # the last observed heartbeat (the honest detector view).
            mttr = sim.now - fault_at.get(core_id,
                                          wd.deadline - wd.timeout)
            mttr_hist.observe(mttr)
            if thread is not None:
                thread.remaining = slice_start_remaining.get(
                    core_id, thread.remaining)
                ready.append(thread)
                note_ready_depth()
                restart_counter.inc()
                work_event.trigger(None)
            if sink is not None:
                sink.instant("recover.core_dead", track="os", ts=sim.now,
                             core=core_id, mttr=mttr,
                             task_restarted=thread is not None)
            if injector is not None:
                injector.note_recovery("core_reap", mttr=mttr,
                                       core=core_id,
                                       task_restarted=thread is not None)
        return bite

    def make_crash_handler(core_id: int):
        def crash(spec) -> bool:
            if dead.get(core_id):
                return False
            fault_at[core_id] = sim.now
            proc = core_procs.get(core_id)
            if proc is not None and proc.alive:
                sim.kill(proc)
            wd = watchdogs[core_id]
            if not wd.armed:
                # Crashed while idle: nothing in flight to recover, but
                # the core must still be reaped or it silently vanishes.
                wd.start()
            return True
        return crash

    def make_hang_handler(core_id: int):
        def hang(spec) -> bool:
            if dead.get(core_id) or hung.get(core_id):
                return False
            fault_at[core_id] = sim.now
            hung[core_id] = True
            wd = watchdogs[core_id]
            if not wd.armed:
                wd.start()  # an idle hung core must still be detected
            return True
        return hang

    def core_proc(core: Core):
        nonlocal remaining_apps
        core_id = core.core_id
        wd = watchdogs[core_id]
        hang_forever = Event(f"core{core_id}.hang")
        while remaining_apps > 0 and not dead.get(core_id):
            if hung.get(core_id):
                # Hung: alive but unresponsive.  Keep the watchdog armed
                # and stop kicking -- the bite reaps this process.
                if not wd.armed:
                    wd.start()
                yield WaitEvent(hang_forever)
                continue  # pragma: no cover - hang_forever never fires
            thread = _pop_matching(ready, core.isa)
            if thread is None:
                # Idle cores disarm their watchdog (no heartbeat needed:
                # an idle core holds no work to lose) and sleep.
                wd.stop()
                yield WaitEvent(work_event)
                continue
            note_ready_depth()
            if wd.armed:
                wd.kick()
            else:
                wd.start()
            if thread.last_core is not None and \
                    thread.last_core != core.core_id:
                migration_counter.inc()
            thread.last_core = core.core_id
            current[core_id] = thread
            slice_start_remaining[core_id] = thread.remaining
            slice_work = min(quantum * core.freq, thread.remaining)
            duration = slice_work / core.freq + ctx_overhead
            outcome.context_switches += 1
            switch_counter.inc()
            if sink is not None:
                sink.complete(
                    f"{thread.app.spec.name}.t{thread.index}",
                    ts=sim.now, dur=duration,
                    track=f"os/core{core.core_id}")
            yield Delay(duration)
            wd.kick()  # slice completed: proof of liveness
            current[core_id] = None
            thread.remaining -= slice_work
            if thread.remaining <= 1e-12:
                thread.app.unfinished -= 1
                if thread.app.unfinished == 0:
                    thread.app.finish = sim.now
                    _record(outcome, thread.app, sim.now)
                    remaining_apps -= 1
                    work_event.trigger(None)
            else:
                ready.append(thread)
                note_ready_depth()
                work_event.trigger(None)
        wd.stop()

    for core in machine.cores:
        watchdogs[core.core_id] = Watchdog(
            sim, heartbeat_timeout, make_bite(core.core_id),
            name=f"core{core.core_id}.watchdog", start=False)
        if injector is not None:
            injector.register("core_crash", core.core_id,
                              make_crash_handler(core.core_id))
            injector.register("core_hang", core.core_id,
                              make_hang_handler(core.core_id))
    for spec in apps:
        sim.spawn(arrival_proc(spec), name=f"arrive.{spec.name}")
    for core in machine.cores:
        core_procs[core.core_id] = sim.spawn(core_proc(core),
                                             name=f"core{core.core_id}")
    sim.run()
    # Threads stranded with no surviving core: the app can never finish.
    for state in states:
        if state.finish is None and state.unfinished > 0:
            _record(outcome, state, float("inf"))
    return outcome


__all__ = ["AppResult", "AppSpec", "ScheduleOutcome", "expand_periodic",
           "run_hybrid", "run_resilient", "run_space_shared",
           "run_time_shared"]

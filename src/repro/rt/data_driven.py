"""Data-driven executive (Hijdra-style, paper section III).

All internal stages start on the *arrival of data*: they block on their
input FIFO, compute, and block on their output FIFO when it is full
(back-pressure).  Only the source and sink are timer-triggered:

- the **source** fires every period; if its output FIFO is full the new
  sample *overwrites* the oldest one (corruption at the source boundary);
- the **sink** fires every period; if no data is available it reports a
  miss (corruption at the sink boundary).

The section-III claim this executive demonstrates: execution-time overruns
never corrupt data *inside* the application -- overruns surface only as
boundary effects at the source/sink, where "often the functionality is
robust to corruption".
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.desim import Delay, Fifo, Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink
from repro.rt.pipeline import DeliveredItem, PipelineSpec


@dataclass
class DataDrivenResult:
    """Outcome of a data-driven pipeline run."""

    delivered: List[DeliveredItem] = field(default_factory=list)
    source_drops: int = 0        # boundary corruption at the source
    sink_misses: int = 0         # boundary corruption at the sink
    out_of_order: int = 0        # internal corruption (must stay 0)
    duplicates: int = 0          # internal corruption (must stay 0)
    jobs_run: int = 0
    fifo_occupancy: Dict[str, int] = field(default_factory=dict)
    # Deadline handling (see run_data_driven's deadline_policy).
    degraded_firings: int = 0    # firings shortened while under pressure
    skipped_firings: int = 0     # firings passed through while under pressure
    deadline_policy: Optional[str] = None
    # Observability registry: per-stage firings, execution-time histograms
    # and boundary-corruption counters.
    metrics: Optional[MetricsRegistry] = None

    @property
    def internal_corruptions(self) -> int:
        return self.out_of_order + self.duplicates

    @property
    def deadline_misses(self) -> int:
        """Sink-boundary deadline misses (alias of ``sink_misses``)."""
        return self.sink_misses

    @property
    def boundary_corruptions(self) -> int:
        return self.source_drops + self.sink_misses

    @property
    def delivered_ok(self) -> int:
        return sum(1 for item in self.delivered if item.received_seq is not None)


def run_data_driven(spec: PipelineSpec, jobs: int,
                    fifo_capacity: int = 2,
                    sink: Optional[TraceSink] = None,
                    metrics: Optional[MetricsRegistry] = None,
                    deadline_policy: Optional[str] = None,
                    degrade_factor: float = 0.5) -> DataDrivenResult:
    """Execute ``jobs`` pipeline iterations under the data-driven executive.

    ``fifo_capacity`` is the per-edge buffer capacity computed at design
    time (see :mod:`repro.dataflow.buffer_sizing`); small capacities trade
    more source-boundary drops for less memory, but never internal
    corruption.

    ``deadline_policy`` reacts to sink-boundary deadline misses with a
    *pressure* flag (set on a miss, cleared on the next hit):

    - ``None`` (default): historical behaviour, misses only counted;
    - ``"degrade"``: while under pressure every firing runs a cheaper
      approximation (``execution * degrade_factor``) so the pipeline
      catches up at reduced quality;
    - ``"skip"``: while under pressure stages pass data through without
      computing (zero execution time) -- maximal load shedding.

    With a ``sink`` each stage firing becomes a span on the ``rt/<stage>``
    track and each sink miss an instant; ``metrics`` accumulates firings
    and execution-time histograms.
    """
    if deadline_policy not in (None, "skip", "degrade"):
        raise ValueError(f"unknown deadline_policy: {deadline_policy!r}")
    if not 0.0 < degrade_factor <= 1.0:
        raise ValueError(f"degrade_factor must be in (0, 1]: {degrade_factor}")
    spec.validate()
    sim = Simulator()
    metrics = metrics if metrics is not None else MetricsRegistry()
    result = DataDrivenResult(metrics=metrics, deadline_policy=deadline_policy)
    stage_count = len(spec.stages)
    fifos = [Fifo(capacity=fifo_capacity, name=f"q{k}")
             for k in range(stage_count - 1)]
    pressure = [False]  # set by a sink miss, cleared by the next hit

    def fire(stage, job: int) -> float:
        """Account one stage firing; returns its execution time."""
        execution = stage.execution_time(job)
        if pressure[0] and deadline_policy == "degrade":
            execution *= degrade_factor
            result.degraded_firings += 1
            metrics.counter("dd.degraded_firings").inc()
        elif pressure[0] and deadline_policy == "skip":
            execution = 0.0
            result.skipped_firings += 1
            metrics.counter("dd.skipped_firings").inc()
        metrics.counter(f"dd.{stage.name}.firings").inc()
        metrics.histogram(f"dd.{stage.name}.exec_time").observe(execution)
        if sink is not None:
            sink.complete(f"{stage.name}#{job}", ts=sim.now, dur=execution,
                          track=f"rt/{stage.name}")
        return execution

    def source_process():
        stage = spec.stages[0]
        for job in range(jobs):
            trigger = job * spec.period
            if trigger > sim.now:
                yield Delay(trigger - sim.now)
            yield Delay(fire(stage, job))
            if stage_count == 1:
                result.delivered.append(DeliveredItem(job, job, sim.now))
                continue
            fifos[0].put_nowait(job, overwrite=True)
        result.jobs_run = jobs

    def worker_process(stage_index: int):
        stage = spec.stages[stage_index]
        inbox = fifos[stage_index - 1]
        outbox = fifos[stage_index] if stage_index < stage_count - 1 else None
        job = 0
        expected_min = -1
        while True:
            value = yield from inbox.get()
            if value <= expected_min:
                result.duplicates += 1
            elif value < expected_min:
                result.out_of_order += 1
            expected_min = max(expected_min, value)
            yield Delay(fire(stage, job))
            job += 1
            if outbox is not None:
                yield from outbox.put(value)  # blocking: back-pressure
            else:
                raise AssertionError("last worker must be the sink")

    def sink_process():
        stage = spec.stages[-1]
        inbox = fifos[-1]
        # Steady-state latency from the WCET estimates, plus a tiny slack
        # so an exactly-on-time arrival beats the sink's trigger (mirrors
        # the time-triggered executive's schedule slack).
        latency = sum(s.wcet_estimate for s in spec.stages[:-1]) \
            + spec.period * 1e-6 * len(spec.stages)
        job = 0
        last_seen = -1
        while job < jobs:
            trigger = job * spec.period + latency
            if trigger > sim.now:
                yield Delay(trigger - sim.now)
            if inbox.empty:
                result.sink_misses += 1
                pressure[0] = True
                metrics.counter("dd.sink_misses").inc()
                if sink is not None:
                    sink.instant("sink_miss", track=f"rt/{stage.name}",
                                 ts=sim.now, job=job,
                                 policy=deadline_policy)
                result.delivered.append(DeliveredItem(job, None, sim.now))
            else:
                value = inbox.get_nowait()
                if value <= last_seen:
                    result.duplicates += 1
                last_seen = value
                yield Delay(fire(stage, job))
                pressure[0] = False
                result.delivered.append(DeliveredItem(job, value, sim.now))
            job += 1

    sim.spawn(source_process(), name=spec.stages[0].name)
    for index in range(1, stage_count - 1):
        sim.spawn(worker_process(index), name=spec.stages[index].name)
    if stage_count > 1:
        sim.spawn(sink_process(), name=spec.stages[-1].name)
    sim.run()

    result.source_drops = fifos[0].overwrites if fifos else 0
    result.fifo_occupancy = {f.name: f.max_occupancy for f in fifos}
    metrics.counter("dd.source_drops").inc(result.source_drops)
    for fifo in fifos:
        metrics.gauge(f"dd.fifo.{fifo.name}.max_occupancy").set(
            fifo.max_occupancy)
    return result


__all__ = ["DataDrivenResult", "run_data_driven"]

"""Kernel profiling probe: a :class:`~repro.desim.SimObserver`.

Attaches to a :class:`~repro.desim.Simulator` through the kernel's
observer interface (the kernel itself stays dependency-free -- it only
calls observers when at least one is installed) and derives:

- **queue depth** -- sampled into the sink as a counter series;
- **events/sec**  -- simulated events per host wall-clock second;
- **per-process dwell times** -- simulated time spent occupying the
  kernel (``Delay`` requests become spans on the ``kernel`` track) and
  simulated time spent blocked on events/processes (a histogram).
"""

from __future__ import annotations

import time
from typing import Dict, Optional

from repro.desim.kernel import Delay, Process, SimObserver, Simulator
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink


class KernelProbe(SimObserver):
    """Profiling observer over one simulator.

    ``sink`` receives per-process ``Delay`` occupancy spans on
    ``span_track`` and a queue-depth counter series sampled every
    ``counter_interval`` executed events.  ``metrics`` accumulates
    counters (events, resumes, finishes), the queue high-water mark and
    dwell histograms; both are optional and a probe with neither is a
    cheap no-op.

    Contract with the ISS fast path: an installed :class:`SimObserver`
    is a sync boundary (:mod:`repro.vp.iss` defines the rule), so the
    probe observes the exact per-instruction event ordering of an
    un-instrumented ``quantum=1`` run (at per-instruction cost).
    Scheduled items may be recycled by the kernel's re-arm fast path, so
    observers must not key state off item identity.
    """

    def __init__(self, sink: Optional[TraceSink] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 span_track: str = "kernel",
                 counter_interval: int = 1) -> None:
        if counter_interval < 1:
            raise ValueError("counter_interval must be >= 1")
        self.sink = sink
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.span_track = span_track
        self.counter_interval = counter_interval
        self.events_executed = 0
        self._wall_start = time.perf_counter()
        self._wall_elapsed: Optional[float] = None
        # pid -> sim time of the last blocking (non-Delay) yield.
        self._blocked_since: Dict[int, float] = {}

    # ------------------------------------------------------------------
    # SimObserver interface
    # ------------------------------------------------------------------
    def on_schedule(self, sim: Simulator, item) -> None:
        self.metrics.gauge("kernel.queue_peak").set(sim.pending)

    def on_execute(self, sim: Simulator, item) -> None:
        self.events_executed += 1
        self.metrics.counter("kernel.events").inc()
        if self.sink is not None and \
                self.events_executed % self.counter_interval == 0:
            self.sink.counter("queue_depth", sim.pending,
                              track=self.span_track, ts=sim.now)

    def on_process_resume(self, sim: Simulator, proc: Process) -> None:
        self.metrics.counter("kernel.resumes").inc()
        blocked_at = self._blocked_since.pop(proc.pid, None)
        if blocked_at is not None:
            self.metrics.histogram("kernel.wait_dwell").observe(
                sim.now - blocked_at)

    def on_process_yield(self, sim: Simulator, proc: Process,
                         request) -> None:
        if isinstance(request, Delay):
            self.metrics.histogram("kernel.run_dwell").observe(
                request.duration)
            if self.sink is not None and request.duration > 0:
                self.sink.complete(proc.name, ts=sim.now,
                                   dur=request.duration,
                                   track=self.span_track, pid=proc.pid)
        else:
            # WaitEvent / WaitProcess / bare Event: the process blocks.
            self._blocked_since[proc.pid] = sim.now

    def on_process_finish(self, sim: Simulator, proc: Process) -> None:
        self.metrics.counter("kernel.finishes").inc()
        if proc.error is not None:
            self.metrics.counter("kernel.failures").inc()
        self._blocked_since.pop(proc.pid, None)
        if self.sink is not None:
            self.sink.instant(f"{proc.name}.finish", track=self.span_track,
                              ts=sim.now, error=repr(proc.error)
                              if proc.error else None)

    # ------------------------------------------------------------------
    # summary
    # ------------------------------------------------------------------
    def finish(self) -> None:
        """Freeze the wall clock (call when the observed run is over)."""
        if self._wall_elapsed is None:
            self._wall_elapsed = time.perf_counter() - self._wall_start

    @property
    def events_per_second(self) -> float:
        """Simulated events executed per host wall-clock second."""
        elapsed = self._wall_elapsed \
            if self._wall_elapsed is not None \
            else time.perf_counter() - self._wall_start
        return self.events_executed / elapsed if elapsed > 0 else 0.0

    def summary(self) -> Dict[str, object]:
        return {
            "events": self.events_executed,
            "events_per_second": self.events_per_second,
            "metrics": self.metrics.snapshot(),
        }


def observe(sim: Simulator, sink: Optional[TraceSink] = None,
            metrics: Optional[MetricsRegistry] = None,
            span_track: str = "kernel",
            counter_interval: int = 1) -> KernelProbe:
    """Attach a :class:`KernelProbe` to ``sim`` and return it."""
    probe = KernelProbe(sink=sink, metrics=metrics, span_track=span_track,
                        counter_interval=counter_interval)
    sim.add_observer(probe)
    return probe


__all__ = ["KernelProbe", "observe"]

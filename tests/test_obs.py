"""Tests for the observability subsystem (``repro.obs``).

Covers the trace sink (emission, queries, Chrome trace-event export),
the metrics registry, the kernel probe, the instrumentation hooks in the
OS scheduler / RT executives / MAPS flow, the cross-layer demo, and the
zero-cost-when-unobserved guarantee.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.desim import Delay, SimObserver, Simulator, WaitEvent
from repro.desim.events import Event
from repro.faults import FaultPlan
from repro.obs import (
    Counter, Gauge, Histogram, KernelProbe, MetricsRegistry, NullSink,
    TraceSink, observe,
)
from repro.vp.soc import SoC, SoCConfig

REPO_ROOT = Path(__file__).resolve().parents[1]


# ----------------------------------------------------------------------
# Chrome trace-event schema validation (shared by several tests)
# ----------------------------------------------------------------------
def validate_chrome_trace(doc):
    """Assert ``doc`` is a well-formed Chrome trace-event JSON object:
    required keys per phase, ``dur`` on complete events, and monotonic
    ``ts`` per (pid, tid) track in emitted order."""
    assert isinstance(doc, dict) and "traceEvents" in doc
    events = doc["traceEvents"]
    assert events, "empty trace"
    named_tids = set()
    last_ts = {}
    for event in events:
        assert "ph" in event, event
        if event["ph"] == "M":  # metadata (thread names)
            assert event["name"] == "thread_name"
            assert event["args"]["name"]
            named_tids.add((event["pid"], event["tid"]))
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            assert key in event, f"missing {key!r} in {event}"
        assert event["ph"] in ("X", "i", "C"), event
        if event["ph"] == "X":
            assert "dur" in event and event["dur"] >= 0, event
        track = (event["pid"], event["tid"])
        assert event["ts"] >= last_ts.get(track, float("-inf")), \
            f"non-monotonic ts on track {track}: {event}"
        last_ts[track] = event["ts"]
    # Every track that carries events is labelled.
    assert set(last_ts) <= named_tids
    return named_tids


def _layer_of(track_name):
    """'os/core0' -> 'os', 'maps.flow' -> 'maps', 'kernel' -> 'kernel'."""
    return track_name.split("/")[0].split(".")[0]


# ----------------------------------------------------------------------
# TraceSink
# ----------------------------------------------------------------------
class TestTraceSink:
    def test_instant_and_query(self):
        sink = TraceSink()
        sink.instant("irq", track="vp/irq", ts=5.0, signal="timer0")
        sink.instant("irq", track="vp/irq", ts=9.0, signal="timer1")
        assert len(sink) == 2
        assert sink.tracks() == ["vp/irq"]
        irqs = sink.instants(track="vp/irq", name="irq")
        assert [r.ts for r in irqs] == [5.0, 9.0]
        assert irqs[0].args["signal"] == "timer0"

    def test_complete_span(self):
        sink = TraceSink()
        record = sink.complete("slice", ts=10.0, dur=2.5, track="os/core0",
                               app="jpeg")
        assert record.ph == "X" and record.dur == 2.5
        assert sink.spans(track="os/core0")[0].args == {"app": "jpeg"}
        assert sink.total_duration(track="os/core0") == 2.5

    def test_begin_end_lifo_nesting(self):
        sink = TraceSink()
        sink.begin("outer", track="t", ts=0.0)
        sink.begin("inner", track="t", ts=1.0)
        inner = sink.end(track="t", ts=3.0)
        outer = sink.end(track="t", ts=10.0)
        assert (inner.name, inner.ts, inner.dur) == ("inner", 1.0, 2.0)
        assert (outer.name, outer.ts, outer.dur) == ("outer", 0.0, 10.0)

    def test_unbalanced_end_is_ignored(self):
        sink = TraceSink()
        assert sink.end(track="t") is None
        assert len(sink) == 0

    def test_span_context_manager_closes_on_error(self):
        sink = TraceSink()
        with pytest.raises(ValueError):
            with sink.span("phase", track="flow"):
                raise ValueError("inside")
        spans = sink.spans(track="flow", name="phase")
        assert len(spans) == 1  # closed despite the exception

    def test_counter_series(self):
        sink = TraceSink()
        for ts, depth in [(0.0, 3), (1.0, 5), (2.0, 1)]:
            sink.counter("queue_depth", depth, track="kernel", ts=ts)
        assert sink.counter_series("queue_depth", track="kernel") == \
            [(0.0, 3), (1.0, 5), (2.0, 1)]

    def test_default_clock_is_monotonic_microseconds(self):
        sink = TraceSink()
        first = sink.instant("a")
        second = sink.instant("b")
        assert 0 <= first.ts <= second.ts

    def test_track_order_is_first_emission(self):
        sink = TraceSink()
        sink.instant("x", track="b")
        sink.instant("x", track="a")
        sink.instant("x", track="b")
        assert sink.tracks() == ["b", "a"]

    def test_null_sink_is_api_compatible(self):
        sink = NullSink()
        sink.instant("x", track="t", ts=1.0)
        sink.complete("x", ts=0.0, dur=1.0)
        sink.counter("c", 3)
        with sink.span("phase"):
            pass
        assert sink.end() is None


class TestChromeExport:
    def _populated(self):
        sink = TraceSink()
        sink.complete("task", ts=0.0, dur=4.0, track="kernel", pid=7)
        sink.instant("finish", track="kernel", ts=4.0)
        sink.counter("depth", 2, track="kernel", ts=1.0)
        sink.complete("slice", ts=2.0, dur=1.0, track="os/core0")
        return sink

    def test_schema_valid(self):
        doc = self._populated().to_chrome()
        named = validate_chrome_trace(doc)
        assert len(named) == 2  # two labelled tracks

    def test_thread_names_match_tracks(self):
        doc = self._populated().to_chrome()
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["ph"] == "M"}
        assert names == {"kernel", "os/core0"}

    def test_events_sorted_by_ts(self):
        doc = self._populated().to_chrome()
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_write_round_trip(self, tmp_path):
        path = self._populated().write(str(tmp_path / "out.trace.json"))
        doc = json.loads(Path(path).read_text())
        validate_chrome_trace(doc)


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_tracks_high_water_mark(self):
        gauge = Gauge("g")
        gauge.set(5)
        gauge.dec(3)
        gauge.inc(1)
        assert gauge.value == 3
        assert gauge.max_value == 5

    def test_histogram_buckets_and_percentiles(self):
        hist = Histogram("h", buckets=[10.0, 20.0, 30.0])
        for value in (5.0, 15.0, 25.0, 1000.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(261.25)
        assert (hist.min, hist.max) == (5.0, 1000.0)
        assert hist.percentile(25) == 10.0   # first bucket's upper bound
        assert hist.percentile(50) == 20.0
        assert hist.percentile(99) == 1000.0  # overflow bucket -> observed max
        with pytest.raises(ValueError):
            hist.percentile(101)

    def test_histogram_rejects_bad_buckets(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=[5.0, 1.0])
        with pytest.raises(ValueError):
            Histogram("h", buckets=[])

    def test_registry_get_or_create(self):
        registry = MetricsRegistry()
        assert registry.counter("hits") is registry.counter("hits")
        with pytest.raises(TypeError):
            registry.gauge("hits")  # already a Counter

    def test_registry_prefix_and_snapshot(self):
        registry = MetricsRegistry(prefix="os.")
        registry.counter("switches").inc(3)
        registry.gauge("ready").set(4)
        registry.histogram("resp", buckets=[1.0, 10.0]).observe(0.5)
        snap = registry.snapshot()
        assert snap["os.switches"] == 3
        assert snap["os.ready"] == {"value": 4, "max": 4}
        assert snap["os.resp"]["count"] == 1
        assert snap["os.resp"]["p95"] == 1.0
        assert registry.get("switches").value == 3
        assert registry.names() == ["os.ready", "os.resp", "os.switches"]


# ----------------------------------------------------------------------
# Kernel probe
# ----------------------------------------------------------------------
class TestKernelProbe:
    def test_delay_spans_and_queue_depth(self):
        sink = TraceSink()
        sim = Simulator()
        probe = observe(sim, sink=sink)

        def worker():
            yield Delay(3)
            yield Delay(2)
        sim.spawn(worker(), name="w")
        sim.run()
        probe.finish()
        spans = sink.spans(track="kernel", name="w")
        assert [(s.ts, s.dur) for s in spans] == [(0.0, 3.0), (3.0, 2.0)]
        assert sink.counter_series("queue_depth", track="kernel")
        assert probe.events_executed > 0
        assert probe.events_per_second > 0
        assert probe.summary()["metrics"]["kernel.events"] == \
            probe.events_executed

    def test_wait_dwell_histogram(self):
        sim = Simulator()
        probe = observe(sim)
        gate = Event("gate")

        def producer():
            yield Delay(5)
            gate.trigger("go")

        def consumer():
            yield WaitEvent(gate)
        sim.spawn(producer())
        sim.spawn(consumer())
        sim.run()
        dwell = probe.metrics.histogram("kernel.wait_dwell")
        assert dwell.count == 1
        assert dwell.max == 5.0

    def test_finish_instant_records_error(self):
        sink = TraceSink()
        sim = Simulator()
        observe(sim, sink=sink)

        def bomb():
            yield Delay(1)
            raise RuntimeError("boom")
        sim.spawn(bomb(), name="bomb")
        with pytest.raises(RuntimeError):
            sim.run()
        finishes = sink.instants(track="kernel", name="bomb.finish")
        assert len(finishes) == 1
        assert "boom" in finishes[0].args["error"]

    def test_remove_observer_stops_recording(self):
        sim = Simulator()
        probe = KernelProbe()
        sim.add_observer(probe)
        sim.remove_observer(probe)

        def worker():
            yield Delay(1)
        sim.spawn(worker())
        sim.run()
        assert probe.events_executed == 0

    def test_counter_interval_thins_samples(self):
        dense, sparse = TraceSink(), TraceSink()
        for sink, interval in ((dense, 1), (sparse, 5)):
            sim = Simulator()
            observe(sim, sink=sink, counter_interval=interval)

            def worker():
                for _ in range(10):
                    yield Delay(1)
            sim.spawn(worker())
            sim.run()
        dense_n = len(dense.counter_series("queue_depth", track="kernel"))
        sparse_n = len(sparse.counter_series("queue_depth", track="kernel"))
        assert dense_n > sparse_n > 0
        with pytest.raises(ValueError):
            KernelProbe(counter_interval=0)


# ----------------------------------------------------------------------
# Subsystem instrumentation (OS scheduler, RT executives, MAPS flow)
# ----------------------------------------------------------------------
class TestSubsystemInstrumentation:
    def test_os_scheduler_metrics_and_spans(self):
        from repro.manycore.machine import Machine
        from repro.manycore.os_scheduler import AppSpec, run_hybrid
        sink = TraceSink()
        jobs = [AppSpec("seq0", work=3.0, arrival=0.0),
                AppSpec("par0", work=8.0, threads=2, arrival=0.5, rt=True,
                        deadline=30.0)]
        outcome = run_hybrid(Machine(4), jobs, ts_cores=2, sink=sink,
                             metrics=MetricsRegistry())
        snap = outcome.metrics.snapshot()
        assert snap["os.completions"] == len(jobs)
        assert "os.response_time" in snap
        core_tracks = [t for t in sink.tracks() if t.startswith("os/core")]
        assert core_tracks and any(sink.spans(track=t) for t in core_tracks)
        assert sink.counter_series("ready_depth", track="os")

    def test_time_triggered_metrics(self):
        from repro.rt import PipelineSpec, make_jitter_fn, run_time_triggered
        spec = PipelineSpec(period=10.0)
        for index in range(3):
            spec.add_stage(f"st{index}", 2.0,
                           make_jitter_fn(2.0, 0.3, overrun_factor=1.6,
                                          seed=11 + index))
        sink = TraceSink()
        result = run_time_triggered(spec, jobs=50, sink=sink,
                                    metrics=MetricsRegistry())
        snap = result.metrics.snapshot()
        assert snap["tt.st0.firings"] == 50
        assert snap["tt.st0.exec_time"]["count"] == 50
        assert sink.spans(track="rt/st0")
        # The overrun probability guarantees some stale reads downstream.
        stale = sum(snap.get(f"tt.st{i}.stale_reads", 0) for i in range(3))
        assert stale > 0
        assert sink.instants(name="stale_read")

    def test_data_driven_metrics(self):
        from repro.rt import PipelineSpec, make_jitter_fn, run_data_driven
        spec = PipelineSpec(period=8.5)
        for index in range(3):
            spec.add_stage(f"st{index}", 2.0,
                           make_jitter_fn(2.0, 0.5, overrun_factor=1.6,
                                          seed=21 + index))
        sink = TraceSink()
        result = run_data_driven(spec, jobs=80, fifo_capacity=1, sink=sink,
                                 metrics=MetricsRegistry())
        snap = result.metrics.snapshot()
        assert snap["dd.st0.firings"] > 0
        assert sink.spans(track="rt/st0")
        occupancy = [name for name in snap
                     if name.startswith("dd.fifo.")
                     and name.endswith("max_occupancy")]
        assert occupancy

    def test_flow_phases_and_kernel_in_one_sink(self):
        from repro.maps import MapsFlow, PEClass, PlatformSpec
        source = """
        int data[64];
        int main() {
          int i; int acc = 0;
          for (i = 0; i < 64; i++) { data[i] = i * 3; }
          for (i = 0; i < 64; i++) { acc += data[i] % 7; }
          return acc;
        }
        """
        platform = PlatformSpec("mini", channel_setup_cost=5.0,
                                channel_word_cost=0.05)
        platform.add_pe("arm0", PEClass.RISC)
        platform.add_pe("dsp0", PEClass.DSP)
        sink = TraceSink()
        report = MapsFlow(platform, sink=sink).run(source, split_k=2,
                                                   app_name="mini")
        assert report.semantics_preserved
        phases = [s.name for s in sink.spans(track="maps.flow")]
        assert phases == ["parse", "partition", "expand", "map",
                          "mvp_simulate", "codegen", "validate"]
        assert sink.spans(track="kernel")  # MVP ran under a kernel probe
        validate_chrome_trace(sink.to_chrome())

    def test_flow_without_sink_runs_unobserved(self):
        from repro.maps import MapsFlow, PEClass, PlatformSpec
        platform = PlatformSpec("mini", channel_setup_cost=5.0,
                                channel_word_cost=0.05)
        platform.add_pe("arm0", PEClass.RISC)
        flow = MapsFlow(platform)
        assert isinstance(flow.sink, NullSink)
        assert flow._observed_sim() is None


# ----------------------------------------------------------------------
# Cross-layer demo (the `make trace-demo` artifact)
# ----------------------------------------------------------------------
class TestTraceExplorerDemo:
    def test_demo_emits_valid_three_layer_trace(self, tmp_path):
        out = tmp_path / "jpeg.trace.json"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src") + os.pathsep + \
            env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples/trace_explorer.py"),
             "--out", str(out), "--iterations", "1"],
            capture_output=True, text=True, timeout=180, env=env,
            cwd=str(REPO_ROOT))
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(out.read_text())
        validate_chrome_trace(doc)
        tid_names = {e["tid"]: e["args"]["name"]
                     for e in doc["traceEvents"] if e["ph"] == "M"}
        span_layers = {_layer_of(tid_names[e["tid"]])
                       for e in doc["traceEvents"] if e["ph"] == "X"}
        # Spans from at least three layers of the stack in ONE trace.
        assert {"maps", "kernel", "os"} <= span_layers


# ----------------------------------------------------------------------
# Zero cost when unobserved
# ----------------------------------------------------------------------
class TestUnobservedOverhead:
    @staticmethod
    def _run_once(observer):
        sim = Simulator()
        if observer is not None:
            sim.add_observer(observer)

        def ticker(n):
            for _ in range(n):
                yield Delay(1)
        for _ in range(20):
            sim.spawn(ticker(250))
        start = time.perf_counter()
        sim.run()
        return time.perf_counter() - start, sim.event_count

    def test_no_observer_run_is_not_slower_than_probed(self):
        """The acceptance bar: an un-observed simulation pays only a
        truthiness check per event, so it must not be measurably slower
        than the same run under a probe (best-of-3, generous bound)."""
        bare = min(self._run_once(None)[0] for _ in range(3))
        probed = min(self._run_once(KernelProbe())[0] for _ in range(3))
        assert bare <= probed * 1.5 + 0.005, \
            f"bare {bare:.4f}s vs probed {probed:.4f}s"

    def test_throughput_floor(self):
        elapsed, events = self._run_once(None)
        assert events >= 5000
        assert elapsed < 2.0, f"{events} events took {elapsed:.2f}s"


# ----------------------------------------------------------------------
# Per-hook observer dispatch
# ----------------------------------------------------------------------
class _Recorder(SimObserver):
    """Overrides every hook and counts its calls."""

    def __init__(self):
        self.calls = {"schedule": 0, "execute": 0, "resume": 0,
                      "yield": 0, "finish": 0}

    def on_schedule(self, sim, item):
        self.calls["schedule"] += 1

    def on_execute(self, sim, item):
        self.calls["execute"] += 1

    def on_process_resume(self, sim, proc):
        self.calls["resume"] += 1

    def on_process_yield(self, sim, proc, request):
        self.calls["yield"] += 1

    def on_process_finish(self, sim, proc):
        self.calls["finish"] += 1


class _FinishOnly(SimObserver):
    def __init__(self):
        self.finished = []

    def on_process_finish(self, sim, proc):
        self.finished.append(proc.name)


def _three_workers(sim, steps=4):
    def worker():
        for _ in range(steps):
            yield Delay(1)
    for index in range(3):
        sim.spawn(worker(), name=f"w{index}")


class TestObserverDispatch:
    """The kernel calls each hook only on observers that override it,
    while ``has_observers`` keeps meaning "any observer is installed"."""

    def test_full_observer_sees_every_call(self):
        sim = Simulator()
        recorder = sim.add_observer(_Recorder())
        probe = observe(sim)
        _three_workers(sim)
        sim.run()
        # 3 workers x (spawn + 4 Delays): 5 schedules, 5 resumes, 4
        # yields and one finish each.
        assert sim.event_count == 15
        assert recorder.calls == {"schedule": 15, "execute": 15,
                                  "resume": 15, "yield": 12, "finish": 3}
        metrics = probe.metrics
        assert probe.events_executed == sim.event_count
        assert metrics.counter("kernel.events").value == sim.event_count
        assert metrics.counter("kernel.resumes").value == 15
        assert metrics.counter("kernel.finishes").value == 3

    def test_only_overridden_hooks_are_dispatched(self):
        sim = Simulator()
        finish_only = sim.add_observer(_FinishOnly())
        assert sim.has_observers
        assert sim._on_process_finish == [finish_only.on_process_finish]
        assert not (sim._on_schedule or sim._on_execute
                    or sim._on_process_resume or sim._on_process_yield)
        _three_workers(sim)
        sim.run()
        assert finish_only.finished == ["w0", "w1", "w2"]

    def test_bare_observer_dispatches_nothing_but_still_observes(self):
        sim = Simulator()
        observer = sim.add_observer(SimObserver())
        assert sim.has_observers
        assert not (sim._on_schedule or sim._on_execute
                    or sim._on_process_resume or sim._on_process_yield
                    or sim._on_process_finish)
        sim.remove_observer(observer)
        assert not sim.has_observers

    def test_observer_added_mid_run_starts_receiving(self):
        sim = Simulator()
        recorder = _Recorder()
        _three_workers(sim)
        sim.run(until=2)
        before = sim.event_count
        sim.add_observer(recorder)
        sim.run()
        assert recorder.calls["execute"] == sim.event_count - before > 0
        assert recorder.calls["finish"] == 3

    def test_observer_added_by_an_action_sees_that_event_on(self):
        sim = Simulator()
        recorder = _Recorder()
        _three_workers(sim)
        sim.at(2.5, lambda: sim.add_observer(recorder))
        sim.run()
        # Events at t=3 and t=4 (3 workers each) plus the adding action.
        assert recorder.calls["execute"] == 7
        assert recorder.calls["finish"] == 3

    def test_removed_observer_stops_receiving(self):
        sim = Simulator()
        recorder = sim.add_observer(_Recorder())
        _three_workers(sim)
        sim.at(2.5, lambda: sim.remove_observer(recorder))
        sim.run()
        # Events at t=0, 1 and 2; the removing action is not seen.
        assert recorder.calls["execute"] == 9
        assert recorder.calls["finish"] == 0
        assert not sim.has_observers

    def test_finish_only_fault_injector_keeps_cores_on_reference_path(self):
        """A FaultInjector overrides only ``on_process_finish``, yet its
        presence must still force the per-instruction path (fault bit
        flips land between two reference-path instructions)."""
        firmware = """
            li r1, 0
            li r2, 200
        loop:
            addi r1, r1, 1
            blt r1, r2, loop
            halt
        """
        soc = SoC(SoCConfig(n_cores=2, quantum=64, backend="compiled"),
                  {0: firmware, 1: firmware})
        injector = soc.instrument(faults=FaultPlan()).injector
        assert soc.sim.has_observers
        assert soc.sim._on_process_finish == [injector.on_process_finish]
        soc.run()
        retired = sum(core.instr_count for core in soc.cores)
        # One kernel event per retired instruction, plus each core's
        # first activation: nothing was batched.
        assert retired == 2 * (2 + 2 * 200 + 1)
        assert soc.sim.event_count == retired + len(soc.cores)

"""Tests for the unified ``SoC.instrument()`` API.

One call attaches any combination of observability, the race sanitizer
and fault injection, returning an :class:`~repro.vp.soc.Instrumentation`
handle bundle.
"""

import pytest

from repro.desim import Simulator
from repro.faults import FaultInjector, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import TraceSink
from repro.sanitize import RaceSanitizer
from repro.vp.soc import Instrumentation, SoC, SoCConfig
from repro.vp.trace import Tracer

FIRMWARE = """
    li r1, 16
    li r2, 5
    sw r2, 0(r1)
    lw r3, 0(r1)
    halt
"""

RACY = """
    li r1, 100
    li r2, 0
    li r3, 40
loop:
    lw r6, 0(r1)
    addi r6, r6, 1
    sw r6, 0(r1)
    addi r2, r2, 1
    blt r2, r3, loop
    halt
"""


def make_soc(n_cores=1, firmware=FIRMWARE):
    return SoC(SoCConfig(n_cores=n_cores, ram_words=256),
               {core: firmware for core in range(n_cores)})


class TestInstrumentBundle:
    def test_nothing_requested_attaches_nothing(self):
        soc = make_soc()
        handle = soc.instrument()
        assert isinstance(handle, Instrumentation)
        assert handle.tracer is None and handle.probe is None
        assert handle.detector is None and handle.injector is None
        assert handle.sink is None and handle.metrics is None
        assert not soc.sim.has_observers

    def test_obs_true_creates_sink_and_metrics(self):
        soc = make_soc()
        handle = soc.instrument(obs=True)
        assert isinstance(handle.sink, TraceSink)
        assert isinstance(handle.metrics, MetricsRegistry)
        assert isinstance(handle.tracer, Tracer)
        assert handle.probe is not None
        assert soc.sim.has_observers
        soc.run()
        assert handle.sink.records
        assert handle.tracer.sink is handle.sink

    def test_obs_accepts_a_trace_sink_instance(self):
        soc = make_soc()
        sink = TraceSink()
        handle = soc.instrument(obs=sink)
        assert handle.tracer.sink is sink
        soc.run()
        assert sink.records

    def test_obs_options_forwarded_to_tracer(self):
        soc = make_soc()
        handle = soc.instrument(obs={"trace_instructions": True,
                                     "trace_memory": False})
        assert handle.tracer.trace_instructions is True
        soc.run()
        assert any(e.kind == "instr" for e in handle.tracer.events)

    def test_sanitizer_true(self):
        soc = make_soc(n_cores=2, firmware=RACY)
        handle = soc.instrument(sanitizer=True)
        assert isinstance(handle.detector, RaceSanitizer)
        soc.run()
        assert handle.detector.checked_accesses > 0
        assert handle.detector.races  # RACY has an unguarded counter

    def test_faults_accepts_plan_dict_and_injector(self):
        plan = FaultPlan().flip_ram_bit(addr=16, bit=1, at=1.0)

        for faults in (plan, plan.to_dict(),
                       "premade"):
            soc = make_soc()
            if faults == "premade":
                faults = FaultInjector(soc.sim, plan)
            handle = soc.instrument(faults=faults)
            assert isinstance(handle.injector, FaultInjector)
            soc.run()
            assert len(handle.injector.injected) == 1

    def test_shared_metrics_default(self):
        soc = make_soc()
        handle = soc.instrument(sanitizer=True, faults=FaultPlan())
        assert handle.detector.metrics is handle.metrics
        assert handle.injector.metrics is handle.metrics

    def test_attachment_dict_key_beats_shared_default(self):
        soc = make_soc()
        shared = TraceSink()
        handle = soc.instrument(sanitizer={"sink": None}, sink=shared)
        assert handle.sink is shared
        assert handle.detector.sink is None

    def test_option_validation(self):
        soc = make_soc()
        with pytest.raises(ValueError, match="unknown obs option"):
            soc.instrument(obs={"bogus": 1})
        with pytest.raises(ValueError, match="unknown sanitizer option"):
            soc.instrument(sanitizer={"trace_memory": True})
        with pytest.raises(TypeError, match="sanitizer must be"):
            soc.instrument(sanitizer="yes")
        with pytest.raises(TypeError, match="faults must be"):
            soc.instrument(faults=42)

    @pytest.mark.parametrize("obs", [42, "yes", 0, []])
    def test_obs_rejects_values_that_are_not_a_sink(self, obs):
        # Regression: any non-dict obs used to be taken as a trace sink,
        # and the run died later inside the kernel probe.
        soc = make_soc()
        with pytest.raises(TypeError, match="obs must be"):
            soc.instrument(obs=obs)
        assert not soc.sim.has_observers
        soc.run()
        assert soc.cores[0].halted

    def test_detach_releases_intrusive_attachments(self):
        soc = make_soc(n_cores=2, firmware=RACY)
        handle = soc.instrument(obs=True, sanitizer=True,
                                faults=FaultPlan())
        assert soc.sim.has_observers
        handle.detach()
        assert not soc.sim.has_observers
        assert handle.detector is None and handle.probe is None
        assert handle.injector is None
        handle.detach()  # idempotent
        soc.run()  # platform still runs after release
        # Nothing stays installed: the run batches exactly like a SoC
        # that was never instrumented.
        plain = make_soc(n_cores=2, firmware=RACY)
        plain.run()
        assert soc.sim.event_count == plain.sim.event_count
        assert [c.state() for c in soc.cores] \
            == [c.state() for c in plain.cores]


class TestBackendDowngrade:
    """Attaching instrumentation forces the event-exact path, silently
    overriding a requested batching backend; instrument() records that
    as the ``backend.downgrade`` counter."""

    def test_sanitizer_on_vector_soc_downgrades_to_scalar(self):
        ref = SoC(SoCConfig(n_cores=2, ram_words=256, quantum=1,
                            backend="reference"), {0: RACY, 1: RACY})
        ref.run()
        soc = SoC(SoCConfig(n_cores=2, ram_words=256, quantum=64,
                            backend="vector"), {0: RACY, 1: RACY})
        handle = soc.instrument(sanitizer=True)
        soc.run()
        assert handle.metrics.counter("backend.downgrade").value == 1
        # The downgrade is real: no lockstep window ever retired, and
        # the run is still bit-identical to the reference oracle.
        assert soc.lane_groups[0].windows == 0
        assert soc.lane_groups[0].solo_steps == 0
        assert [c.state() for c in soc.cores] \
            == [c.state() for c in ref.cores]
        assert soc.sim.now == ref.sim.now

    def test_obs_and_faults_also_count(self):
        for kwargs in ({"obs": True}, {"faults": FaultPlan()},
                       {"obs": True, "sanitizer": True,
                        "faults": FaultPlan()}):
            soc = make_soc()   # default backend "compiled" batches
            handle = soc.instrument(**kwargs)
            assert handle.metrics.counter("backend.downgrade").value \
                == 1, kwargs

    def test_no_downgrade_without_batching_to_lose(self):
        for backend, quantum in (("reference", 64), ("compiled", 1)):
            soc = SoC(SoCConfig(n_cores=1, ram_words=256, quantum=quantum,
                                backend=backend), {0: FIRMWARE})
            handle = soc.instrument(obs=True)
            assert handle.metrics.counter("backend.downgrade").value \
                == 0, backend

    def test_nothing_attached_counts_nothing(self):
        soc = make_soc()
        handle = soc.instrument()
        assert handle.metrics is None  # no registry even created


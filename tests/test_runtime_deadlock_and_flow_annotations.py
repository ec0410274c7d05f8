"""Tests for HOPES deadlock detection and annotation-driven MAPS mapping."""

import pytest

from repro.hopes import CICApplication, CICTask, CICTranslator, parse_arch_xml
from repro.maps import MapsFlow, PEClass, PlatformSpec

SMP = """
<architecture name="smp" model="shared">
  <processor name="cpu0" type="smp"/>
  <processor name="cpu1" type="smp"/>
</architecture>
"""


class TestRuntimeDeadlockDetection:
    def _loop_app(self, initial_tokens):
        app = CICApplication("loop")
        app.add_task(CICTask("a", """
            int task_go() { write_port(0, read_port(0) + 1); return 0; }
            """, in_ports=["i"], out_ports=["o"]))
        app.add_task(CICTask("b", """
            int task_go() { write_port(0, read_port(0)); return 0; }
            """, in_ports=["i"], out_ports=["o"]))
        app.connect("a", "o", "b", "i")
        app.connect("b", "o", "a", "i", initial_tokens=initial_tokens)
        return app

    def test_tokenless_cycle_reported_deadlocked(self):
        report = CICTranslator(self._loop_app([]), parse_arch_xml(SMP)) \
            .translate().run(iterations=3)
        assert report.deadlocked
        assert set(report.starved_tasks) == {"a", "b"}

    def test_primed_cycle_clean(self):
        report = CICTranslator(self._loop_app([0]), parse_arch_xml(SMP)) \
            .translate().run(iterations=3)
        assert not report.deadlocked
        assert report.requested_iterations == 3

    def test_horizon_cut_reports_starved(self):
        app = CICApplication("slow")
        app.add_task(CICTask("t", """
            int task_go() { int i; int s; s = 0;
              for (i = 0; i < 200; i++) { s += i; }
              emit(s); return 0; }
        """))
        report = CICTranslator(app, parse_arch_xml(SMP)) \
            .translate().run(iterations=50, horizon=100.0)
        assert report.starved_tasks == ["t"]
        assert report.horizon_cut
        assert not report.deadlocked

    def test_horizon_cut_pipeline_is_not_deadlocked(self):
        from tests.test_hopes import SMP_XML, pipeline_app
        system = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML)) \
            .translate()
        cut = system.run(iterations=5, horizon=10.0)
        assert cut.horizon_cut and not cut.deadlocked
        assert cut.starved_tasks == ["gen", "scale", "sink"]
        full = system.run(iterations=5)
        assert not full.horizon_cut and not full.starved_tasks
        assert full.end_time == 182.5

    def test_idle_before_the_horizon_is_a_deadlock(self):
        report = CICTranslator(self._loop_app([]), parse_arch_xml(SMP)) \
            .translate().run(iterations=3, horizon=1000.0)
        assert not report.horizon_cut
        assert report.deadlocked

    def test_report_without_horizon_cut_key_loads(self):
        from repro.hopes.runtime import ExecutionReport
        report = CICTranslator(self._loop_app([0]), parse_arch_xml(SMP)) \
            .translate().run(iterations=3)
        data = report.to_dict()
        assert data.pop("horizon_cut") is False
        assert ExecutionReport.from_dict(data).horizon_cut is False
        assert ExecutionReport.from_dict(data) == report


class TestFlowAnnotations:
    ANNOTATED = """
    // @maps pe=dsp class=soft period=5000 priority=2
    int main() {
      int A[64];
      int i; int s = 0;
      for (i = 0; i < 64; i++) { A[i] = i * 3; }
      for (i = 0; i < 64; i++) { s += A[i]; }
      return s;
    }
    """

    def _platform(self):
        platform = PlatformSpec("het")
        platform.add_pe("cpu", PEClass.RISC)
        platform.add_pe("dsp0", PEClass.DSP)
        platform.add_pe("dsp1", PEClass.DSP)
        return platform

    def test_pe_annotation_steers_mapping(self):
        report = MapsFlow(self._platform()).run(self.ANNOTATED, split_k=2)
        assert report.semantics_preserved
        # Every compute task landed on a DSP, as annotated.
        compute = [t for t, node in report.expanded_graph.nodes.items()
                   if node.cost > 5]
        assert compute
        for task in compute:
            assert report.mapping.pe_of(task).startswith("dsp"), task

    def test_annotation_carried_in_report(self):
        report = MapsFlow(self._platform()).run(self.ANNOTATED, split_k=2)
        assert report.annotation is not None
        assert report.annotation.period == 5000.0
        assert report.annotation.priority == 2

    def test_unannotated_source_unaffected(self):
        source = "int main() { return 7; }"
        report = MapsFlow(self._platform()).run(source, split_k=2)
        assert report.annotation is None
        assert report.semantics_preserved

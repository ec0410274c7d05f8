"""Tests for the end-to-end MAPS flow and the shared metrics helpers."""

import pytest

from repro.core.metrics import (
    crossover_point, speedup_curve, summarize_speedups, table,
)
from repro.maps import MapsFlow, PlatformSpec

JPEG_LIKE = """
int input[256];
int coeff[256];
int quant[256];
int main() {
  int i;
  int bits = 0;
  for (i = 0; i < 256; i++) { input[i] = (i * 31 + 7) % 255; }
  for (i = 0; i < 256; i++) { coeff[i] = input[i] * 4 - 128; }
  for (i = 0; i < 256; i++) { quant[i] = coeff[i] / 16; }
  for (i = 0; i < 256; i++) { bits += abs(quant[i]) % 8; }
  return bits;
}
"""


class TestMapsFlowEndToEnd:
    def test_jpeg_like_speedup_and_semantics(self):
        flow = MapsFlow(PlatformSpec.symmetric(4))
        report = flow.run(JPEG_LIKE, split_k=4)
        assert report.semantics_preserved
        assert report.estimated_speedup > 2.0
        assert report.measured_speedup > 2.0
        assert set(report.pe_sources) == {"pe0", "pe1", "pe2", "pe3"}

    def test_speedup_grows_with_pes(self):
        speedups = {}
        for n in (1, 2, 4, 8):
            flow = MapsFlow(PlatformSpec.symmetric(n))
            report = flow.run(JPEG_LIKE, split_k=max(n, 1))
            speedups[n] = report.measured_speedup
        assert speedups[8] > speedups[4] > speedups[2] >= speedups[1] * 0.99

    def test_heterogeneous_platform(self):
        from repro.maps import PEClass
        platform = PlatformSpec("het")
        platform.add_pe("cpu", PEClass.RISC)
        platform.add_pe("dsp0", PEClass.DSP)
        platform.add_pe("dsp1", PEClass.DSP)
        report = MapsFlow(platform).run(JPEG_LIKE, split_k=3)
        assert report.semantics_preserved

    def test_tool_decision_metric_positive(self):
        flow = MapsFlow(PlatformSpec.symmetric(2))
        report = flow.run(JPEG_LIKE, split_k=2)
        assert report.partition.tool_decisions > 5


class TestMetrics:
    def test_speedup_curve_and_summary(self):
        curve = speedup_curve(100.0, {1: 100.0, 2: 50.0, 4: 30.0})
        assert curve[2] == pytest.approx(2.0)
        summary = summarize_speedups(curve)
        assert summary["max_cores"] == 4
        assert summary["parallel_efficiency_at_max"] == \
            pytest.approx(100 / 30 / 4)

    def test_crossover(self):
        a = {1: 1.0, 2: 2.0, 3: 3.0}
        b = {1: 2.0, 2: 2.0, 3: 2.0}
        # b beats a at x=1 and stops beating it at the x=2 tie.
        assert crossover_point(b, a) == 2
        # a never beats b before x=1, so it has "stopped" from the start.
        assert crossover_point(a, b) == 1
        # A curve that always wins never crosses over.
        assert crossover_point({1: 9.0, 2: 9.0}, {1: 1.0, 2: 1.0}) \
            == float("inf")

    def test_table_renders(self):
        text = table([[1, "x"], [22, "yyy"]], headers=["n", "name"])
        lines = text.splitlines()
        assert lines[0].startswith("n")
        assert len(lines) == 4


class TestRefinementLoop:
    def test_refine_never_worse(self):
        flow = MapsFlow(PlatformSpec.symmetric(4))
        base = flow.run(JPEG_LIKE, split_k=4)
        refined = flow.run(JPEG_LIKE, split_k=4, refine=True,
                           refine_iterations=600)
        assert refined.mvp.makespan <= base.mvp.makespan + 1e-9
        assert refined.semantics_preserved

    def test_refine_preserves_schedule_dependences(self):
        """A consumer starts no earlier than its producer finishes, plus
        the channel cost when they sit on different PEs."""
        for n_pes in (2, 3, 4):
            platform = PlatformSpec.symmetric(n_pes)
            for refine in (False, True):
                report = MapsFlow(platform).run(
                    JPEG_LIKE, split_k=n_pes, refine=refine,
                    refine_iterations=300)
                by_task = {e.task: e for e in report.mapping.schedule}
                assert set(by_task) == set(report.expanded_graph.nodes)
                assert set(report.mapping.assignment) == \
                    set(report.expanded_graph.nodes)
                for edge in report.expanded_graph.edges:
                    src, dst = by_task[edge.src], by_task[edge.dst]
                    comm = (platform.comm_cost(edge.words)
                            if src.pe != dst.pe else 0)
                    assert dst.start + 1e-9 >= src.finish + comm, \
                        (n_pes, refine, edge)

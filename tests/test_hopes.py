"""Tests for the HOPES/CIC flow: model, arch file, translator, targets."""

import pytest

from repro.desim import Fifo
from repro.hopes import runtime as hopes_runtime
from repro.hopes import (
    ArchInfo, CICApplication, CICTask, CICTranslator, CellTarget,
    MPCoreTarget, ProcessorInfo, TranslationError, parse_arch_xml,
    to_arch_xml,
)

SMP_XML = """
<architecture name="mpcoresim" model="shared">
  <processor name="cpu0" type="smp" freq="1.0"/>
  <processor name="cpu1" type="smp" freq="1.0"/>
  <interconnect kind="bus" setup="12" per_word="0.25"/>
</architecture>
"""

CELL_XML = """
<architecture name="cellsim" model="distributed">
  <processor name="ppe" type="host" freq="1.0"/>
  <processor name="spe0" type="accel" freq="2.0" local_store="512"/>
  <processor name="spe1" type="accel" freq="2.0" local_store="512"/>
  <interconnect kind="dma" setup="60" per_word="0.5"/>
</architecture>
"""


def pipeline_app():
    app = CICApplication("demo")
    app.add_task(CICTask("gen", """
        int n;
        int task_init() { n = 0; return 0; }
        int task_go() { write_port(0, n); n = n + 1; return 0; }
        """, out_ports=["out"]))
    app.add_task(CICTask("scale", """
        int task_go() { int v; v = read_port(0);
                        write_port(0, v * 3 + 1); return 0; }
        """, in_ports=["in"], out_ports=["out"]))
    app.add_task(CICTask("sink", """
        int task_go() { int v; v = read_port(0); emit(v); return 0; }
        """, in_ports=["in"]))
    app.connect("gen", "out", "scale", "in")
    app.connect("scale", "out", "sink", "in")
    return app


class TestCICModel:
    def test_missing_task_go_rejected(self):
        with pytest.raises(ValueError, match="task_go"):
            CICApplication("x").add_task(
                CICTask("bad", "int other() { return 0; }"))

    def test_unknown_port_rejected(self):
        app = pipeline_app()
        with pytest.raises(KeyError):
            app.connect("gen", "nonexistent", "sink", "in")

    def test_undriven_in_port_rejected(self):
        app = CICApplication("x")
        app.add_task(CICTask("lonely",
                             "int task_go() { read_port(0); return 0; }",
                             in_ports=["in"]))
        with pytest.raises(ValueError, match="drivers"):
            app.validate()

    def test_source_sink_detection(self):
        app = pipeline_app()
        assert app.source_tasks() == ["gen"]
        assert app.sink_tasks() == ["sink"]

    def test_channel_capacity_validation(self):
        app = pipeline_app()
        with pytest.raises(ValueError):
            app.connect("gen", "out", "sink", "in", capacity=0)


class TestArchFile:
    def test_parse(self):
        info = parse_arch_xml(CELL_XML)
        assert info.model == "distributed"
        assert info.processor("spe0").local_store == 512
        assert info.interconnect.setup == 60

    def test_roundtrip(self):
        info = parse_arch_xml(CELL_XML)
        again = parse_arch_xml(to_arch_xml(info))
        assert again.processor_names() == info.processor_names()
        assert again.model == info.model
        assert again.interconnect.per_word == info.interconnect.per_word

    def test_bad_root_rejected(self):
        with pytest.raises(ValueError):
            parse_arch_xml("<banana/>")

    def test_no_processors_rejected(self):
        with pytest.raises(ValueError, match="no processors"):
            parse_arch_xml('<architecture name="x"></architecture>')

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError, match="unknown element"):
            parse_arch_xml('<architecture><weird/></architecture>')


class TestRetargeting:
    def test_identical_outputs_on_both_targets(self):
        """The paper's E9 experiment in miniature: same CIC spec, two
        opposed targets, identical functional behaviour."""
        smp = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML))
        cell = CICTranslator(pipeline_app(), parse_arch_xml(CELL_XML))
        out_smp = smp.translate().run(iterations=12).output_of("sink")
        out_cell = cell.translate().run(iterations=12).output_of("sink")
        assert out_smp == out_cell == [3 * n + 1 for n in range(12)]

    def test_task_code_verbatim_in_generated_sources(self):
        translator = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML))
        generated = translator.translate()
        for task_name, source in generated.task_sources.items():
            proc = generated.mapping[task_name]
            assert source in generated.source_for(proc)

    def test_glue_differs_between_targets(self):
        smp = CICTranslator(pipeline_app(),
                            parse_arch_xml(SMP_XML)).translate()
        cell = CICTranslator(pipeline_app(),
                             parse_arch_xml(CELL_XML)).translate()
        assert smp.task_sources == cell.task_sources
        smp_glue = "\n".join(smp.glue_sources.values())
        cell_glue = "\n".join(cell.glue_sources.values())
        assert "queue_pop_locked" in smp_glue
        assert "dma_get" in cell_glue or "dma_put" in cell_glue
        assert smp_glue != cell_glue

    def test_model_mismatch_rejected(self):
        with pytest.raises(TranslationError):
            CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML),
                          target=CellTarget()).translate(
                {"gen": "cpu0", "scale": "cpu0", "sink": "cpu1"})

    def test_manual_mapping_honoured(self):
        translator = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML))
        generated = translator.translate(
            {"gen": "cpu0", "scale": "cpu1", "sink": "cpu0"})
        assert generated.mapping["scale"] == "cpu1"
        report = generated.run(iterations=5)
        assert report.output_of("sink") == [1, 4, 7, 10, 13]

    def test_unmapped_task_rejected(self):
        translator = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML))
        with pytest.raises(ValueError, match="unmapped"):
            translator.translate({"gen": "cpu0"})


class TestLocalStoreConstraint:
    def test_overflow_detected(self):
        app = pipeline_app()
        app.tasks["scale"].data_words = 10_000
        target = CellTarget()
        arch = parse_arch_xml(CELL_XML)
        violations = target.validate(app, arch, {"gen": "spe0",
                                                 "scale": "spe0",
                                                 "sink": "ppe"})
        assert any("local store" in v for v in violations)

    def test_auto_map_repairs_to_host(self):
        app = pipeline_app()
        app.tasks["scale"].data_words = 10_000  # fits nowhere but the PPE
        translator = CICTranslator(app, parse_arch_xml(CELL_XML))
        generated = translator.translate()
        assert generated.mapping["scale"] == "ppe"
        assert generated.run(iterations=3).output_of("sink") == [1, 4, 7]


class TestRuntimeSemantics:
    def test_feedback_channel_with_initial_tokens(self):
        app = CICApplication("feedback")
        app.add_task(CICTask("a", """
            int task_go() { int v; v = read_port(0);
                            write_port(0, v + 1); emit(v); return 0; }
            """, in_ports=["back"], out_ports=["fwd"]))
        app.add_task(CICTask("b", """
            int task_go() { int v; v = read_port(0);
                            write_port(0, v * 2); return 0; }
            """, in_ports=["in"], out_ports=["out"]))
        app.connect("a", "fwd", "b", "in")
        app.connect("b", "out", "a", "back", initial_tokens=[1])
        translator = CICTranslator(app, parse_arch_xml(SMP_XML))
        report = translator.translate().run(iterations=4)
        # v: 1 -> emit 1, send 2 -> b doubles to 4 -> emit 4 ...
        assert report.output_of("a") == [1, 4, 10, 22]

    def test_periodic_source_task(self):
        app = pipeline_app()
        app.tasks["gen"].period = 500.0
        translator = CICTranslator(app, parse_arch_xml(SMP_XML))
        report = translator.translate().run(iterations=4)
        gen_stats = report.task_stats["gen"]
        assert gen_stats.firings == 4
        assert report.end_time >= 3 * 500.0

    def test_deadline_miss_counted(self):
        app = pipeline_app()
        app.tasks["scale"].deadline = 1e-6  # impossible
        translator = CICTranslator(app, parse_arch_xml(SMP_XML))
        report = translator.translate().run(iterations=5)
        assert report.task_stats["scale"].deadline_misses == 5

    def test_task_state_persists_across_firings(self):
        app = pipeline_app()  # gen counts with a global 'n'
        translator = CICTranslator(app, parse_arch_xml(SMP_XML))
        report = translator.translate().run(iterations=3)
        assert report.output_of("sink") == [1, 4, 7]

    def test_task_state_without_task_init_starts_at_zero(self):
        """A task's globals start at zero when it has no ``task_init``,
        on an architecture built in code (default interconnect)."""
        app = CICApplication("counter")
        app.add_task(CICTask("src", """
            int n;
            int task_go() { write_port(0, n); n += 1; return 0; }
            """, out_ports=["o"]))
        app.add_task(CICTask("dst", """
            int task_go() { emit(read_port(0)); return 0; }
            """, in_ports=["i"]))
        app.connect("src", "o", "dst", "i")
        arch = ArchInfo("smp2", processors=[ProcessorInfo("pe0", "smp"),
                                            ProcessorInfo("pe1", "smp")])
        report = CICTranslator(app, arch).translate().run(iterations=5)
        assert report.output_of("dst") == [0, 1, 2, 3, 4]

    def test_faster_processor_shortens_execution(self):
        slow_xml = SMP_XML.replace('freq="1.0"', 'freq="0.5"')
        fast = CICTranslator(pipeline_app(), parse_arch_xml(SMP_XML))
        slow = CICTranslator(pipeline_app(), parse_arch_xml(slow_xml))
        fast_time = fast.translate().run(iterations=10).end_time
        slow_time = slow.translate().run(iterations=10).end_time
        assert slow_time > fast_time

    @pytest.mark.parametrize("index", [-1, 2])
    def test_write_port_outside_the_out_ports_is_rejected(self, index,
                                                          monkeypatch):
        """``write_port(-1, v)`` must not feed the last out-port and
        ``write_port(len(out_ports), v)`` must name the task, not fail in
        the kernel; either way no token is delivered."""
        fifos = []

        class RecordedFifo(Fifo):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                fifos.append(self)

        monkeypatch.setattr(hopes_runtime, "Fifo", RecordedFifo)
        app = CICApplication("bad_port")
        app.add_task(CICTask("gen", f"""
            int task_go() {{ write_port({index}, 7); return 0; }}
            """, out_ports=["a", "b"]))
        for sink in ("x", "y"):
            app.add_task(CICTask(sink, """
                int task_go() { emit(read_port(0)); return 0; }
                """, in_ports=["in"]))
        app.connect("gen", "a", "x", "in")
        app.connect("gen", "b", "y", "in")
        generated = CICTranslator(app, parse_arch_xml(SMP_XML)).translate()
        with pytest.raises(RuntimeError,
                           match=rf"gen: write_port\({index}\)"):
            generated.run(iterations=1)
        assert len(fifos) == 2
        assert [fifo.total_puts for fifo in fifos] == [0, 0]

"""Additional coverage: priority dispatch, pipeline codegen, streaming
flow, tracing details, failure injection, and misc API corners."""

import pytest

from repro.cir import emit, parse, run_program
from repro.core.metrics import crossover_point, table
from repro.desim import Delay, Resource, Simulator
from repro.hopes import CICApplication, CICTask, CICTranslator, parse_arch_xml
from repro.maps import (
    MapsFlow, PlatformSpec, TaskGraph, map_task_graph,
    generate_pipeline_code, partition_pipeline,
)
from repro.maps.mapping import Mapping
from repro.maps.mvp import AppRun, simulate_mapping
from repro.vp import SoC, SoCConfig, Tracer, assemble
from repro.vp.bus import BusError


class TestPriorityResource:
    def test_priority_order_beats_fifo_order(self):
        sim = Simulator()
        resource = Resource(1)
        order = []

        def user(name, priority, delay):
            if delay:
                yield Delay(delay)
            yield from resource.acquire(priority=priority)
            order.append(name)
            yield Delay(10)
            resource.release()

        sim.spawn(user("first_low", 20, 0))     # grabs it immediately
        sim.spawn(user("queued_low", 20, 1))    # queues first...
        sim.spawn(user("queued_high", 1, 2))    # ...but high jumps ahead
        sim.run()
        assert order == ["first_low", "queued_high", "queued_low"]

    def test_release_idle_raises(self):
        with pytest.raises(RuntimeError):
            Resource(1).release()

    def test_equal_priority_is_fifo(self):
        sim = Simulator()
        resource = Resource(1)
        order = []

        def user(name):
            yield from resource.acquire(priority=5)
            order.append(name)
            yield Delay(1)
            resource.release()

        for name in ("a", "b", "c"):
            sim.spawn(user(name))
        sim.run()
        assert order == ["a", "b", "c"]


class TestMvpPriorities:
    def _mapping(self, platform):
        graph = TaskGraph()
        graph.add_task("t", cost=50)
        return map_task_graph(graph, platform)

    def test_priority_app_gets_lower_latency(self):
        platform = PlatformSpec.symmetric(1)
        mapping = self._mapping(platform)
        report = simulate_mapping(
            [AppRun("bg", mapping, iterations=6, priority=20),
             AppRun("urgent", mapping, iterations=6, priority=1)],
            platform)
        assert max(report.latencies("urgent")) < \
            max(report.latencies("bg"))


class TestPipelineCodegen:
    SOURCE = """
    int raw[16];
    int flt[16];
    int main() {
      int frame;
      for (frame = 0; frame < 8; frame++) {
        int j;
        for (j = 0; j < 16; j++) { raw[j] = frame + j; }
        for (j = 0; j < 16; j++) { flt[j] = raw[j] * 2; }
        print(flt[0]);
      }
      return 0;
    }
    """

    def test_per_pe_sources_generated(self):
        pipeline = partition_pipeline(parse(self.SOURCE))
        platform = PlatformSpec.symmetric(2)
        mapping = map_task_graph(pipeline.task_graph, platform)
        sources = generate_pipeline_code(pipeline, mapping)
        joined = "\n".join(sources.values())
        assert "ch_read" in joined and "ch_write" in joined
        assert "pe_main" in joined
        for stage in pipeline.stage_names:
            assert f"{stage}_task" in joined

    def test_stage_functions_bracket_channels(self):
        pipeline = partition_pipeline(parse(self.SOURCE))
        platform = PlatformSpec.symmetric(1)
        mapping = map_task_graph(pipeline.task_graph, platform)
        sources = generate_pipeline_code(pipeline, mapping)
        text = sources["pe0"]
        # A middle stage both reads and writes channels.
        middle = pipeline.stage_names[1]
        body = text.split(f"void {middle}_task")[1].split("}")[0]
        assert "ch_read" in body


class TestStreamingFlow:
    def test_flow_iterations_pipeline_on_mvp(self):
        source = """
        int A[64];
        int main() { int i; int s = 0;
          for (i = 0; i < 64; i++) { A[i] = i; }
          for (i = 0; i < 64; i++) { s += A[i]; }
          return s; }
        """
        flow = MapsFlow(PlatformSpec.symmetric(2))
        once = flow.run(source, split_k=2, iterations=1)
        streamed = flow.run(source, split_k=2, iterations=8)
        assert len(streamed.mvp.iteration_spans["app"]) == 8
        # Streaming amortizes: 8 iterations cost < 8x one iteration.
        assert streamed.mvp.makespan < once.mvp.makespan * 8


class TestTracerDetails:
    def test_instruction_trace(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "li r1, 1\nadd r2, r1, r1\nhalt\n"})
        tracer = Tracer(soc, trace_instructions=True, trace_memory=False)
        soc.run()
        ops = [e.detail["op"] for e in tracer.of_kind("instr")]
        assert ops == ["li", "add", "halt"]

    def test_by_master_filter(self):
        soc = SoC(SoCConfig(n_cores=2),
                  {0: "li r1, 5\nsw r1, 10(r0)\nhalt\n",
                   1: "lw r1, 10(r0)\nhalt\n"})
        tracer = Tracer(soc)
        soc.run()
        assert all(e.detail["master"] == "core0"
                   for e in tracer.by_master("core0"))
        assert tracer.by_master("core1")


class TestFailureInjection:
    def test_unmapped_address_raises_buserror(self):
        soc = SoC(SoCConfig(n_cores=1), {0: "li r1, 0x9999\nlw r2, 0(r1)\nhalt\n"})
        with pytest.raises(BusError):
            soc.run()

    def test_interp_error_propagates_through_runtime(self):
        app = CICApplication("bad")
        app.add_task(CICTask("t", """
            int task_go() { int x; x = 1 / 0; return x; }
        """))
        translator = CICTranslator(app, parse_arch_xml("""
        <architecture name="a" model="shared">
          <processor name="cpu0" type="smp"/>
        </architecture>"""))
        generated = translator.translate()
        from repro.cir import InterpError
        with pytest.raises(InterpError):
            generated.run(iterations=1)

    def test_assembler_word_label_roundtrip(self):
        program = assemble("""
            li r1, data
            lw r2, 0(r1)
            sw r2, 50(r0)
            halt
            .org 100
        data: .word 41 42
        """)
        soc = SoC(SoCConfig(n_cores=1), {0: program})
        soc.run()
        assert soc.mem(50) == 41
        assert soc.mem(101) == 42

    def test_spinlock_firmware_with_swap(self):
        """swap-based test-and-set on plain RAM (no semaphore bank)."""
        asm = """
            li r1, 100
            li r2, 0
            li r3, 15
            li r4, 90       ; lock word in RAM
        loop:
        acq:
            li r5, 1
            swap r5, 0(r4)
            bne r5, r0, acq
            lw r6, 0(r1)
            addi r6, r6, 1
            sw r6, 0(r1)
            sw r0, 0(r4)
            addi r2, r2, 1
            blt r2, r3, loop
            halt
        """
        soc = SoC(SoCConfig(n_cores=2), {0: asm, 1: asm})
        soc.run()
        assert soc.mem(100) == 30


class TestMiscApi:
    def test_sim_peek_time_and_pending(self):
        sim = Simulator()
        item = sim.at(5, lambda: None)
        sim.at(9, lambda: None)
        assert sim.pending == 2
        assert sim.peek_time() == 5
        sim.cancel(item)
        assert sim.pending == 1
        assert sim.peek_time() == 9

    def test_spawn_start_delay(self):
        sim = Simulator()
        log = []

        def proc():
            log.append(sim.now)
            yield Delay(0)

        sim.spawn(proc(), start_delay=7)
        sim.run()
        assert log == [7]

    def test_metrics_crossover_no_shared_keys(self):
        with pytest.raises(ValueError):
            crossover_point({1: 1.0}, {2: 1.0})

    def test_metrics_table_empty_rows(self):
        text = table([], headers=["a", "bb"])
        assert "a" in text and "bb" in text

    def test_emit_stmt_and_expr_entry_points(self):
        program = parse("int main() { int x; x = 1 + 2 * 3; return x; }")
        stmt = program.function("main").body.stmts[1]
        assert emit(stmt).strip() == "x = 1 + 2 * 3;"
        assert emit(stmt.value) == "1 + 2 * 3"

    def test_run_program_entry_args(self):
        program = parse("int dbl(int v) { return v * 2; }")
        assert run_program(program, entry="dbl", args=[21]).return_value == 42

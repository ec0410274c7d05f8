"""Pinned outputs of the MAPS partitioners and of AST cloning, and the
exactness of the annealer's partial re-scoring.

- **partition**: :func:`~repro.maps.partition_function` over the JPEG
  skeleton at several seeds, the MAPS example sources and three
  hand-written cases for the array-size precedence (a global scalar and
  a local array sharing a name, one array name declared in two nested
  blocks with different sizes, array parameters).  The digest covers
  every task's name, ``repr(cost)``, kind, ``class_factor`` and
  statements, every edge's src, dst, words and label, the data-parallel
  expansion of every parallelizable loop at k = 2, 3, 4, and
  :func:`~repro.maps.partition_pipeline` where the entry has an outer
  loop.  ``partition_function`` sums edge words over a set of names, so
  the digest also shows that the sum does not follow string hashing.
- **clone**: ``emit(clone(f)) == emit(f)`` for every function, and every
  cloned ``node_id`` is fresh and unique.
- **schedule scan**: over seeded random DAGs and single-task moves, the
  annealer's scan from the moved task's topological position equals a
  full scan bit for bit.

The partition digest was recorded before the per-call array-size table,
the per-class clone field cache and the partial scan were introduced.
It, the ``main_par``, per-PE source and refine-report pins were
re-recorded when each split loop's reduction partials took the loop
task's name (``s__loop3_L12_p0``).
"""

from __future__ import annotations

import hashlib
import importlib.util
import random
from pathlib import Path

from repro.cir import parse
from repro.cir.clone import clone
from repro.cir.codegen import emit
from repro.maps import (
    PEClass, PlatformSpec, TaskGraph, partition_data_parallel,
    partition_function, partition_pipeline,
)
from repro.maps.annealing import _ScheduleModel

REPO_ROOT = Path(__file__).resolve().parent.parent


def _jpeg_source(seed: int) -> str:
    """The JPEG-encoder skeleton with seeded constants and size."""
    rng = random.Random(f"{seed}:jpeg")
    n = rng.choice((64, 256, 512))
    a, b = rng.randrange(3, 200, 2), rng.randrange(256)
    q0, q1 = rng.randrange(2, 9), rng.randrange(1, 5)
    return f"""
int pixels[{n}];
int shifted[{n}];
int coeff[{n}];
int quant[{n}];
int qtable[8];
int main() {{
  int i;
  int bits = 0;
  for (i = 0; i < 8; i++) {{ qtable[i] = {q0} + i * {q1}; }}
  for (i = 0; i < {n}; i++) {{ pixels[i] = (i * {a} + {b}) % 256; }}
  for (i = 0; i < {n}; i++) {{ shifted[i] = pixels[i] - 128; }}
  for (i = 0; i < {n}; i++) {{
    int block = i / 8;
    int k = i % 8;
    coeff[i] = shifted[block * 8 + k] * (8 - k) - shifted[i] / 2;
  }}
  for (i = 0; i < {n}; i++) {{ quant[i] = coeff[i] / qtable[i % 8]; }}
  for (i = 0; i < {n}; i++) {{ bits += abs(quant[i]) % 16; }}
  return bits;
}}
"""


def _example_source(module: str, name: str) -> str:
    path = REPO_ROOT / "examples" / f"{module}.py"
    spec = importlib.util.spec_from_file_location(f"_pin_{module}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return getattr(loaded, name)


# A global scalar and a local array share the name ``t``: the local
# array's size counts.  The frame loop makes the pipeline apply.
GLOBAL_SCALAR_LOCAL_ARRAY = """
int t;
int out[6];
int main() {
  int i;
  int f;
  int s = 0;
  for (f = 0; f < 3; f++) {
    { int t[5]; t[f] = f * 2; out[f] = t[f]; }
    s = s + out[f];
  }
  for (i = 0; i < 6; i++) {
    int t[5];
    t[i % 5] = i;
    out[i] = t[i % 5] * 2;
  }
  t = out[0] + t;
  for (i = 0; i < 6; i++) { s += out[i] + t; }
  return s;
}
"""

# One array name declared in two nested blocks with different sizes:
# the first declaration in walk order counts.
NESTED_REDECLARATIONS = """
int main() {
  int i;
  int f;
  int s = 0;
  for (f = 0; f < 2; f++) {
    { int w[3]; w[f] = f + 1; s += w[f]; }
    { int w[7]; w[f + 1] = s; s += w[f + 1]; }
  }
  for (i = 0; i < 4; i++) { int w[9]; w[i] = i; s += w[i]; }
  { int w[11]; w[0] = s; s = w[0] + 1; }
  for (i = 0; i < 4; i++) { s += i; }
  return s;
}
"""

# Array parameters: ``buf`` only as a parameter, ``acc`` also as a
# global array (the global declaration counts).
ARRAY_PARAMETERS = """
int acc[32];
int out[4];
int kernel(int buf[16], int acc[8], int n) {
  int i;
  for (i = 0; i < 16; i++) { buf[i] = i * n; }
  for (i = 0; i < 8; i++) { acc[i] = buf[i * 2] + n; }
  for (i = 0; i < 4; i++) { out[i] = buf[i * 4] + acc[i]; }
  return out[0];
}
int main() {
  return 0;
}
"""


def _sources():
    cases = [(f"jpeg/seed={seed}", _jpeg_source(seed), "main")
             for seed in (1, 4, 8, 97)]
    cases += [
        ("example/jpeg_pipeline_maps",
         _example_source("jpeg_pipeline_maps", "JPEG_LIKE"), "main"),
        ("example/trace_explorer",
         _example_source("trace_explorer", "JPEG_LIKE"), "main"),
        ("example/quickstart",
         _example_source("quickstart", "SEQUENTIAL_C"), "main"),
        ("global-scalar-local-array", GLOBAL_SCALAR_LOCAL_ARRAY, "main"),
        ("nested-redeclarations", NESTED_REDECLARATIONS, "main"),
        ("array-parameters", ARRAY_PARAMETERS, "kernel"),
    ]
    return cases


def _graph_view(graph):
    return ([(name, repr(node.cost), node.kind, repr(node.preferred_pe),
              repr(node.class_factor), [emit(stmt) for stmt in node.stmts])
             for name, node in graph.nodes.items()],
            [(edge.src, edge.dst, edge.words, edge.label)
             for edge in graph.edges])


def _partition_views():
    out = []
    for label, source, entry in _sources():
        program = parse(source)
        result = partition_function(program, entry)
        out.append((label, _graph_view(result.task_graph),
                    result.parallelizable_tasks, result.tool_decisions))
        for task in result.parallelizable_tasks:
            for k in (2, 3, 4):
                out.append((label, task, k, _graph_view(
                    partition_data_parallel(result, task, k))))
        try:
            pipeline = partition_pipeline(program, entry)
        except ValueError as error:
            out.append((label, "pipeline", str(error)))
        else:
            out.append((label, "pipeline", _graph_view(pipeline.task_graph),
                        pipeline.stage_names, pipeline.loop_var,
                        emit(pipeline.iterations_expr)))
    return out


def test_partition_outputs_are_pinned():
    views = _partition_views()
    digest = hashlib.sha256(repr(views).encode()).hexdigest()
    assert len(views) == 158
    assert digest == ("ac6dd977f9a3f68071edba5ace8cadd6"
                      "18a36d6c657464954c2f57e7c87b8e47")


def _main_par_views():
    """``emit`` of the program :func:`generate_data_parallel_code` builds
    after every parallelizable loop is split into k = 2, 3, 4 chunks, as
    ``MapsFlow.run`` splits them."""
    from dataclasses import replace
    from repro.maps.codegen import generate_data_parallel_code
    out = []
    for label, source, entry in _sources():
        result = partition_function(parse(source), entry)
        for k in (2, 3, 4):
            expanded = result.task_graph
            for task in result.parallelizable_tasks:
                expanded = partition_data_parallel(
                    replace(result, task_graph=expanded), task, k)
            generated, _entry = generate_data_parallel_code(
                replace(result, task_graph=expanded), expanded)
            out.append((label, k, emit(generated)))
    return out


def test_main_par_programs_are_pinned():
    """The generated ``main_par`` text: chunk loops, partial
    declarations with their neutral elements, and combine steps."""
    views = _main_par_views()
    digest = hashlib.sha256(repr(views).encode()).hexdigest()
    assert (len(views), digest[:16]) == (30, "d83c3db8a73bf138")


def test_array_size_precedence():
    """The edge words the precedence cases pin, spelled out."""
    words = {}
    for label, source, entry in _sources()[-3:]:
        graph = partition_function(parse(source), entry).task_graph
        words[label] = {edge.label: edge.words for edge in graph.edges}
    assert words == {
        "global-scalar-local-array": {
            "f,s": 2, "i": 1, "i,s": 2, "s": 1, "out,t": 11, "out,s,t": 12,
            "i,out,t": 12, "t": 5},
        "nested-redeclarations": {"f,s": 2, "i,s": 2, "s": 1, "s,w": 4},
        "array-parameters": {"i": 1, "buf,i": 17, "acc,i": 33, "out": 4},
    }


def test_clone_emits_the_same_code_with_fresh_ids():
    for label, source, _entry in _sources():
        program = parse(source)
        original = {node.node_id for node in program.walk()}
        for func in program.functions:
            copy = clone(func)
            assert emit(copy) == emit(func), (label, func.name)
            ids = [node.node_id for node in copy.walk()]
            assert len(ids) == sum(1 for _ in func.walk())
            assert len(set(ids)) == len(ids), (label, func.name)
            assert not original & set(ids), (label, func.name)


def _random_case(rng: random.Random):
    """A random DAG on a heterogeneous platform, some tasks pinned to a
    PE class."""
    platform = PlatformSpec("het", channel_setup_cost=rng.choice((0.0, 5.0)),
                            channel_word_cost=rng.choice((0.01, 0.3)))
    classes = list(PEClass)
    for index in range(rng.randint(1, 5)):
        platform.add_pe(f"pe{index}", rng.choice(classes),
                        freq=rng.choice((0.5, 1.0, 1.5)))
    graph = TaskGraph("random")
    names = [f"t{index}" for index in range(rng.randint(1, 30))]
    rng.shuffle(names)  # graph order differs from topological order
    for name in names:
        node = graph.add_task(name, cost=rng.uniform(1.0, 100.0))
        node.class_factor = {pe_class: rng.uniform(0.3, 3.0)
                             for pe_class in classes}
        if rng.random() < 0.2:
            node.preferred_pe = rng.choice(classes)
    for later in range(len(names)):
        for earlier in range(later):
            if rng.random() < 0.25:
                graph.connect(names[earlier], names[later],
                              words=rng.randint(1, 300))
    return graph, platform


def test_scan_from_the_moved_task_equals_a_full_scan():
    """The annealer re-scores a move from the moved task's topological
    position on: over random DAGs and chains of single-task moves that
    is bit-identical to scanning the whole assignment."""
    for case in range(60):
        rng = random.Random(case)
        graph, platform = _random_case(rng)
        model = _ScheduleModel(graph, platform)
        # The annealer's move set: a task with a preferred PE class moves
        # among the PEs of that class when the platform has one.
        candidates = [[i for i, pe in enumerate(platform.pes)
                       if pe.pe_class == node.preferred_pe]
                      or list(range(len(platform.pes)))
                      for node in graph.nodes.values()]
        assign = [rng.choice(options) for options in candidates]
        state = model.schedule(assign)
        for _move in range(20):
            task = rng.randrange(len(model.tasks))
            old_pe = assign[task]
            assign[task] = rng.choice(candidates[task])
            trial = model.schedule(assign, model.position[task], state)
            assert repr(trial) == repr(model.schedule(assign)), (case, task)
            if rng.random() < 0.5:
                state = trial           # accepted
            else:
                assign[task] = old_pe   # rejected: the old state stays


# -- per-PE sources ------------------------------------------------------

def _maps_jpeg_report(seed: int):
    """One ``MapsFlow.run`` pass of the ``maps_jpeg`` workload."""
    from repro.maps import MapsFlow
    from tests.test_cir_interp import _maps_jpeg_source
    platform = PlatformSpec("terminal", channel_setup_cost=5.0,
                            channel_word_cost=0.05)
    platform.add_pe("arm0", PEClass.RISC)
    platform.add_pe("arm1", PEClass.RISC)
    platform.add_pe("dsp0", PEClass.DSP)
    platform.add_pe("dsp1", PEClass.DSP)
    return MapsFlow(platform).run(
        _maps_jpeg_source(seed), split_k=4, app_name="jpeg", iterations=4,
        refine=True, refine_iterations=400)


def _statement_view(graph):
    return [(name, [(emit(stmt), [node.node_id for node in stmt.walk()])
                    for stmt in graph.nodes[name].stmts])
            for name in graph.topological_order()]


def test_pe_sources_are_pinned_and_leave_the_graph_alone():
    """``FlowReport.pe_sources`` of the ``maps_jpeg`` workload at seeds 1
    and 97, and rendering them again changes no statement of the
    expanded graph (neither its code nor its node ids)."""
    from repro.maps.codegen import render_pe_sources
    pins = {1: "895ed579766454ab", 97: "5c5beb43d56facde"}
    for seed, pinned in pins.items():
        report = _maps_jpeg_report(seed)
        text = repr(sorted(report.pe_sources.items()))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == pinned, seed
        before = _statement_view(report.expanded_graph)
        again = render_pe_sources(report.partition, report.expanded_graph,
                                  report.mapping)
        assert again == report.pe_sources
        assert _statement_view(report.expanded_graph) == before


# -- the Figure-1 refine loop --------------------------------------------

def _refine_platform(seed: int) -> PlatformSpec:
    """2-5 PEs of random class, channel costs from cheap to dominant."""
    rng = random.Random(f"{seed}:refine")
    platform = PlatformSpec(
        f"refine{seed}",
        channel_setup_cost=rng.choice((0.5, 5.0, 20.0, 60.0)),
        channel_word_cost=rng.choice((0.01, 0.05, 0.5, 2.0)))
    for index in range(rng.randint(2, 5)):
        platform.add_pe(f"pe{index}", rng.choice(list(PEClass)))
    return platform


def _refine_runs(monkeypatch):
    """``MapsFlow.run(refine=True)`` over the ``main`` sources on seeded
    platforms.  Yields ``(seed, report, heft, candidate)``: the HEFT and
    the annealed assignments are read off the annealer's call."""
    from repro.maps import MapsFlow
    from repro.maps import annealing
    cases = [case for case in _sources() if case[2] == "main"]
    original = annealing.map_task_graph_annealing
    seen = []

    def traced(graph, platform, **kwargs):
        result = original(graph, platform, **kwargs)
        seen.append((dict(kwargs["initial"]), dict(result.best.assignment)))
        return result

    monkeypatch.setattr(annealing, "map_task_graph_annealing", traced)
    for seed in range(60):
        _label, source, entry = cases[seed % len(cases)]
        report = MapsFlow(_refine_platform(seed)).run(
            source, entry=entry, iterations=2, refine=True,
            refine_iterations=600)
        heft, candidate = seen.pop()
        yield seed, report, heft, candidate


def _refine_view(report):
    mvp = report.mvp
    return (sorted(report.mapping.assignment.items()),
            repr(report.mapping.makespan), repr(mvp.makespan),
            mvp.iteration_spans, sorted(mvp.pe_busy.items()),
            repr(mvp.comm_cycles), report.semantics_preserved)


def test_refine_reports_are_pinned(monkeypatch):
    """Every report of the refine grid, and which way each candidate
    went: the annealer found nothing better (unimproved), found a move
    that MVP then rejected, or found one MVP kept."""
    views, branches = [], {"unimproved": [], "rejected": [], "kept": []}
    for seed, report, heft, candidate in _refine_runs(monkeypatch):
        assert report.semantics_preserved, seed
        views.append((seed, _refine_view(report)))
        if candidate == heft:
            branches["unimproved"].append(seed)
        elif report.mapping.assignment == heft:
            branches["rejected"].append(seed)
        else:
            branches["kept"].append(seed)
    assert {name: len(seeds) for name, seeds in branches.items()} == {
        "unimproved": 37, "rejected": 10, "kept": 13}
    assert branches["kept"][:5] == [0, 1, 3, 9, 12]
    digest = hashlib.sha256(repr(views).encode()).hexdigest()
    assert digest[:16] == "e2c6ecff97cbdcca"


def test_refine_simulates_a_candidate_only_when_its_mapping_differs(
        monkeypatch):
    """MVP runs once on the HEFT mapping and again only on an annealed
    candidate with another assignment.  The call goes through the
    module-level ``flow.simulate_mapping``, which perfbench's traced
    shim wraps."""
    from repro.maps import flow
    original = flow.simulate_mapping
    calls = []

    def counted(runs, *args, **kwargs):
        calls.append(dict(runs[0].mapping.assignment))
        return original(runs, *args, **kwargs)

    monkeypatch.setattr(flow, "simulate_mapping", counted)
    for seed, _report, heft, candidate in _refine_runs(monkeypatch):
        expected = [heft] if candidate == heft else [heft, candidate]
        assert calls == expected, seed
        calls.clear()


# -- loop verdicts -------------------------------------------------------

def _bench_module(name: str):
    path = REPO_ROOT / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"_pin_{name}", path)
    loaded = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(loaded)
    return loaded


def _verdict_programs():
    """``(label, program)`` for the partition sources and the E10 recoder
    kernels, before and after the E10 recoding chain."""
    from repro.recoder import recode_pointers
    for label, source, _entry in _sources():
        yield label, parse(source)
    e10 = _bench_module("test_bench_e10_recoder")
    for n in e10.SIZES:
        yield f"e10/kernel={n}", parse(e10.kernel(n))
        yield f"e10/recoded={n}", e10.recoding_session(n).ast
    session = _example_source("recoder_session", "SOURCE")
    for stride, base in [(1, 0), (1, 4), (2, 0)]:
        session += f"""
        int P{stride}{base}[128];
        int ptr{stride}{base}() {{
          int i;
          int *p = &P{stride}{base}[{base}];
          for (i = 0; i < 32; i++) {{ *(p + {stride} * i) = i; }}
          return P{stride}{base}[{base}];
        }}
        """
    program = parse(session)
    yield "e10/session", program
    for func in program.functions:
        recode_pointers(program, func.name)
    yield "e10/session-recoded", program


def _verdict_views():
    from repro.cir.analysis.dependence import analyze_loop, find_loops
    views = []
    for label, program in _verdict_programs():
        for func in program.functions:
            for loop in find_loops(func.body):
                info = analyze_loop(loop)
                views.append((label, func.name, loop.line,
                              info.classification.value,
                              sorted(info.private_scalars),
                              sorted(info.carried_scalars),
                              sorted(info.reductions.items())))
    return views


def test_loop_verdicts_are_pinned():
    """The verdict, private, carried and reduction scalars of
    :func:`~repro.cir.analysis.dependence.analyze_loop` on every loop of
    the partition sources and the E10 recoder kernels."""
    views = _verdict_views()
    digest = hashlib.sha256(repr(views).encode()).hexdigest()
    assert (len(views), digest[:16]) == (172, "be70cb45bc5ebf34")

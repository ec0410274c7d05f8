"""Pinned outputs of seeded sweeps: mini-C name resolution, the
best-effort NoC transport, multi-application MVP dispatch and the HOPES
run-time system.

Each sweep digests everything its runs expose, so a change in which
variable a name reaches, when a message arrives or which task a PE
serves next moves a digest:

- **names**: generated mini-C programs in which globals, parameters and
  block locals share the names ``x``/``y``/``z`` across nested blocks,
  ``for`` headers, ``if``/``else``, ``&x`` and ``*p`` stores.  A run is
  digested by its whole :class:`~repro.cir.RunResult`, a failed one by
  ``(type, message)``; undefined variables, dangling pointers and the
  step limit all occur in the sweep.
- **noc**: best-effort :class:`~repro.manycore.messaging.NoCModel`
  traffic on 2-16 core meshes, with and without an ``hb_hook``: every
  mailbox's contents, delivery times, latencies, the kernel's event
  count and the hook log.
- **mvp**: several mapped applications contending for the PEs under
  priorities, periods and FIFO capacities: makespan, every iteration
  span, ``pe_busy``, ``comm_cycles`` and schedule violations.  A
  second MVP sweep adds statically dispatched apps, heterogeneous PEs
  and zero or non-dyadic channel costs, whose float totals change with
  the order of summation, plus the kernel's event count and end time.
- **hopes**: generated single-rate CIC applications (a chain, forward
  chords, back edges with 0-2 initial tokens, periods, deadlines,
  ``task_init``) on the shared-memory and the distributed target, cut
  by a horizon or run to the end: the whole
  :class:`~repro.hopes.runtime.ExecutionReport` and the event count.

The digests were recorded before mini-C's run-time shadowing lookup,
the NoC's separate best-effort send path, ``PriorityResource`` and the
two mapped-task firing loops (MVP and HOPES) were folded into the
general code.
"""

from __future__ import annotations

import hashlib
import random

from repro.cir import parse, run_program
from repro.desim import Simulator
from repro.hopes import (CICApplication, CICTask, CellTarget, MPCoreTarget,
                         parse_arch_xml)
from repro.hopes import runtime as hopes_runtime
from repro.hopes.runtime import RuntimeSystem
from repro.maps import PEClass, PlatformSpec, TaskGraph, map_task_graph
from repro.maps.mvp import AppRun, simulate_mapping
from repro.manycore import Machine
from repro.manycore.messaging import NoCModel

NAMES = ("x", "y", "z")
POINTERS = ("p", "q")


# -- mini-C name resolution ----------------------------------------------

def _name(rng: random.Random, known: list) -> str:
    # Mostly a name that is bound here, sometimes any name at all.
    if known and rng.random() < 0.85:
        return rng.choice(known)
    return rng.choice(NAMES)


def _expr(rng: random.Random, known: list, depth: int = 0) -> str:
    roll = rng.random()
    if depth > 1 or roll < 0.3:
        return str(rng.randint(0, 4))
    if roll < 0.65:
        return _name(rng, known)
    if roll < 0.75:
        return f"*{rng.choice(POINTERS)}"
    op = rng.choice(("+", "-", "*", "<"))
    return (f"({_expr(rng, known, depth + 1)} {op} "
            f"{_expr(rng, known, depth + 1)})")


def _stmts(rng: random.Random, depth: int, budget: int, known: list) -> str:
    known = list(known)  # this block's declarations end with it
    out = []
    for _ in range(rng.randint(1, budget)):
        roll = rng.random()
        name = _name(rng, known)
        pointer = rng.choice(POINTERS)
        if roll < 0.2:
            name = rng.choice(NAMES)
            out.append(f"int {name} = {_expr(rng, known)};")
            known.append(name)
        elif roll < 0.36:
            op = rng.choice(("=", "+=", "-="))
            out.append(f"{name} {op} {_expr(rng, known)};")
        elif roll < 0.46:
            out.append(f"print({_expr(rng, known)});")
        elif roll < 0.54:
            out.append(f"int *{pointer} = &{name};")
        elif roll < 0.6:
            out.append(f"{pointer} = &{name};")
        elif roll < 0.68:
            op = rng.choice(("=", "+="))
            out.append(f"*{pointer} {op} {_expr(rng, known)};")
        elif depth >= 3:
            out.append(f"print({name});")
        elif roll < 0.72:
            out.append("{ " + _stmts(rng, depth + 1, 3, known) + " }")
        elif roll < 0.76:
            # A pointer that may outlive the block's local it points at.
            name = rng.choice(NAMES)
            out.append(f"{{ int {name} = {_expr(rng, known)}; "
                       f"{pointer} = &{name}; "
                       + _stmts(rng, depth + 1, 2, known + [name]) + " }")
        elif roll < 0.84:
            other = ""
            if rng.random() < 0.5:
                other = " else { " + _stmts(rng, depth + 1, 3, known) + " }"
            out.append(f"if ({_expr(rng, known)}) {{ "
                       + _stmts(rng, depth + 1, 3, known) + " }" + other)
        elif roll < 0.92:
            if rng.random() < 0.6:
                name = rng.choice(NAMES)
                header = f"int {name} = 0"
            else:
                header = f"{name} = 0"
            body = _stmts(rng, depth + 1, 3, known + [name])
            out.append(f"for ({header}; {name} < {rng.randint(1, 3)}; "
                       f"{name}++) {{ {body} }}")
        elif roll < 0.97:
            out.append(f"while ({name} < {rng.randint(1, 4)}) {{ "
                       + _stmts(rng, depth + 1, 3, known) + " }")
        else:
            out.append(f"return {_expr(rng, known)};")
    return " ".join(out)


def _names_program(rng: random.Random) -> str:
    globals_ = [name for name in NAMES if rng.random() < 0.6]
    params = [name for name in NAMES if rng.random() < 0.35]
    signature = ", ".join(f"int {name}" for name in params)
    args = ", ".join(str(rng.randint(0, 5)) for _ in params)
    # The pointers start out at a variable that exists, when one does.
    bound = globals_ + params
    pointers = " ".join(f"int *{pointer} = &{rng.choice(bound)};"
                        for pointer in POINTERS if bound)
    return "\n".join([f"int {name} = {rng.randint(0, 9)};"
                      for name in globals_] + [
        f"int f({signature}) {{ {pointers} {_stmts(rng, 0, 6, bound)} "
        f"return 0; }}",
        f"int main() {{ print(f({args})); {_stmts(rng, 1, 3, globals_)} "
        f"return 1; }}",
    ])


def _names_digest(programs: int, seed: int = 0) -> str:
    digest = hashlib.sha256()
    for index in range(programs):
        source = _names_program(random.Random(f"{seed}:names:{index}"))
        try:
            result = run_program(parse(source), step_limit=400)
            line = repr((result.return_value, result.output,
                         result.op_count, result.stmt_count,
                         sorted(result.call_counts.items()),
                         sorted(result.func_op_counts.items()),
                         sorted(result.globals.items())))
        except Exception as error:  # the error's type and text are pinned
            line = repr((type(error).__name__, str(error)))
        digest.update(line.encode() + b"\n")
    return digest.hexdigest()[:16]


def test_mini_c_name_resolution_is_pinned():
    assert _names_digest(1500) == "573f9f09236fdf50"


# -- best-effort NoC -----------------------------------------------------

def _noc_digest(grids: int, seed: int = 0) -> str:
    digest = hashlib.sha256()
    for index in range(grids):
        rng = random.Random(f"{seed}:noc:{index}")
        n_cores = rng.randint(2, 16)
        sim = Simulator()
        noc = NoCModel(sim, Machine(n_cores),
                       base_latency=rng.choice((0.0, 1.0, 5.0)),
                       per_hop=rng.choice((0.5, 2.0)),
                       per_word=rng.choice((0.0, 0.25, 1.0)))
        log = []
        if rng.random() < 0.5:
            noc.hb_hook = lambda kind, message: log.append(
                (kind, message.src, message.dst, message.payload, sim.now))
        sends = []
        for number in range(rng.randint(1, 40)):
            sends.append((rng.choice((0.0, 1.0, 2.5, rng.uniform(0, 30))),
                          rng.randrange(n_cores), rng.randrange(n_cores),
                          number, rng.randint(1, 8)))
        for time, src, dst, payload, size in sends:
            sim.at(time, lambda src=src, dst=dst, payload=payload,
                   size=size: noc.send(src, dst, payload, size,
                                       tag=f"t{payload % 3}"))
        sim.run()
        boxes = []
        for core, box in sorted(noc.mailboxes.items()):
            contents = []
            while len(box):
                sender, message = box.receive_nowait()
                contents.append((sender, message.src, message.payload,
                                 message.tag, message.sent_at,
                                 message.delivered_at, message.latency,
                                 message.corrupted))
            boxes.append((core, contents))
        digest.update(repr((boxes, noc.messages_sent, noc.total_latency,
                            sim.now, sim.event_count, log)).encode())
        digest.update(b"\n")
    return digest.hexdigest()[:16]


def test_best_effort_noc_is_pinned():
    assert _noc_digest(300) == "28fc802e1e1d8f1e"


# -- multi-application MVP -----------------------------------------------

def _random_graph(rng: random.Random, prefix: str) -> TaskGraph:
    graph = TaskGraph()
    names = [f"{prefix}{index}" for index in range(rng.randint(1, 6))]
    for name in names:
        graph.add_task(name, cost=rng.choice((5, 10, 20, 35, 50)))
    for later in range(1, len(names)):
        for earlier in rng.sample(range(later), rng.randint(1, min(2, later))):
            graph.connect(names[earlier], names[later],
                          words=rng.randint(1, 16))
    return graph


def _mvp_digest(runs: int, seed: int = 0) -> str:
    digest = hashlib.sha256()
    for index in range(runs):
        rng = random.Random(f"{seed}:mvp:{index}")
        platform = PlatformSpec.symmetric(rng.randint(1, 4),
                                          channel_setup_cost=rng.choice(
                                              (0.0, 1.0, 10.0)))
        apps = []
        for number in range(rng.randint(2, 4)):
            mapping = map_task_graph(_random_graph(rng, f"a{number}t"),
                                     platform)
            apps.append(AppRun(
                f"app{number}", mapping,
                iterations=rng.randint(1, 6),
                period=rng.choice((None, None, 20.0, 45.0, 80.0)),
                start_time=rng.choice((0.0, 0.0, 7.5)),
                priority=rng.choice((0, 1, 5, 10, 10))))
        report = simulate_mapping(apps, platform,
                                  channel_capacity=rng.choice((1, 2, 4)))
        digest.update(repr((report.makespan,
                            sorted(report.iteration_spans.items()),
                            sorted(report.pe_busy.items()),
                            report.comm_cycles,
                            sorted(report.schedule_violations.items()))
                           ).encode() + b"\n")
    return digest.hexdigest()[:16]


def test_mvp_multi_app_dispatch_is_pinned():
    assert _mvp_digest(200) == "c4b347bfbd1c2098"


def _mvp_cost_digest(runs: int, seed: int = 0) -> str:
    digest = hashlib.sha256()
    for index in range(runs):
        rng = random.Random(f"{seed}:mvp-costs:{index}")
        platform = PlatformSpec(
            "het", channel_setup_cost=rng.choice((0.0, 1.0, 10.0)),
            channel_word_cost=rng.choice((0.0, 0.5, 0.05)))
        for number in range(rng.randint(1, 4)):
            platform.add_pe(f"pe{number}",
                            rng.choice((PEClass.RISC, PEClass.DSP)),
                            rng.choice((1.0, 1.0, 1.5, 0.7)))
        apps = []
        for number in range(rng.randint(1, 3)):
            mapping = map_task_graph(_random_graph(rng, f"a{number}t"),
                                     platform)
            static = rng.random() < 0.4
            apps.append(AppRun(
                f"app{number}", mapping,
                iterations=rng.randint(1, 6),
                period=(rng.choice((30.0, 60.0, 150.0)) if static else
                        rng.choice((None, None, 20.0, 45.0))),
                start_time=rng.choice((0.0, 0.0, 7.5)),
                priority=rng.choice((0, 1, 5, 10, 10)),
                static_dispatch=static))
        sim = Simulator()
        report = simulate_mapping(apps, platform, sim=sim,
                                  channel_capacity=rng.choice((1, 2, 4)))
        digest.update(repr((report.makespan,
                            sorted(report.iteration_spans.items()),
                            sorted(report.pe_busy.items()),
                            report.comm_cycles,
                            sorted(report.schedule_violations.items()),
                            sim.event_count, sim.now)).encode() + b"\n")
    return digest.hexdigest()[:16]


def test_mvp_static_dispatch_and_channel_costs_are_pinned():
    assert _mvp_cost_digest(300) == "a30e47939651edb5"


# -- HOPES run-time system -----------------------------------------------

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


def _cic_app(rng: random.Random) -> CICApplication:
    """A single-rate CIC application: every firing reads one token per
    in-port and writes one per out-port."""
    count = rng.randint(1, 6)
    names = [f"t{index}" for index in range(count)]
    edges = [(names[k], names[k + 1], 0) for k in range(count - 1)]
    for later in range(2, count):
        for earlier in range(later - 1):
            if rng.random() < 0.3:
                edges.append((names[earlier], names[later], 0))
    for later in range(1, count):
        if rng.random() < 0.35:
            edges.append((names[later], names[rng.randrange(later)],
                          rng.randint(0, 2)))
    ins = {name: [] for name in names}
    outs = {name: [] for name in names}
    wiring = []
    for number, (src, dst, tokens) in enumerate(edges):
        if outs[src] and rng.random() < 0.25:
            port = rng.choice(outs[src])  # fan out through a second channel
        else:
            port = f"o{number}"
            outs[src].append(port)
        ins[dst].append(f"i{number}")
        wiring.append((src, port, dst, f"i{number}", tokens))
    app = CICApplication("pinned")
    for name in names:
        reads = " ".join(f"v = (v * 3 + read_port({port})) % 1000;"
                         for port in range(len(ins[name])))
        writes = " ".join(f"write_port({port}, v + {port});"
                          for port in range(len(outs[name])))
        source = ["int n;"]
        if rng.random() < 0.3:
            source.append(f"int task_init() {{ int i; "
                          f"for (i = 0; i < {rng.randint(0, 9)}; i++) "
                          f"{{ n = n + i; }} return 0; }}")
        emit = "emit(v);" if not outs[name] or rng.random() < 0.3 else ""
        source.append(
            f"int task_go() {{ int v; int i; v = n; {reads} "
            f"for (i = 0; i < v % {rng.randint(2, 7)}; i++) {{ v = v + i; }} "
            f"{writes} {emit} n = n + 1; return 0; }}")
        app.add_task(CICTask(
            name, " ".join(source), in_ports=ins[name], out_ports=outs[name],
            period=rng.choice((None, None, None, 5.0, 12.5, 40.0)),
            deadline=rng.choice((None, None, 10.0, 30.0)), data_words=8))
    for src, port, dst, in_port, tokens in wiring:
        capacity = rng.choice((1, 2, 4))
        app.connect(src, port, dst, in_port, capacity=capacity,
                    token_words=rng.randint(1, 4),
                    initial_tokens=list(range(min(tokens, capacity))))
    return app


def _hopes_digest(apps: int, seed: int = 0) -> str:
    sims = []

    class CountedSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            sims.append(self)

    digest = hashlib.sha256()
    original = hopes_runtime.Simulator
    hopes_runtime.Simulator = CountedSimulator
    try:
        for index in range(apps):
            rng = random.Random(f"{seed}:hopes:{index}")
            app = _cic_app(rng)
            iterations = rng.randint(1, 6)
            horizon = rng.choice((float("inf"), 30.0, 75.0, 160.0))
            for xml, target in (
                    (SMP_XML, rng.choice((MPCoreTarget(), MPCoreTarget(
                        lock_cycles=3.3, copy_per_word=0.1,
                        dispatch_cycles=0.7)))),
                    (CELL_XML, rng.choice((CellTarget(), CellTarget(
                        dma_setup=6.1, dma_per_word=0.3,
                        mailbox_cycles=1.1, dispatch_cycles=0.3))))):
                arch = parse_arch_xml(xml)
                procs = arch.processor_names()
                mapping = {name: rng.choice(procs) for name in app.tasks}
                if target.validate(app, arch, mapping):
                    mapping = {name: procs[0] for name in app.tasks}
                report = RuntimeSystem(app, arch, mapping, target).run(
                    iterations, horizon=horizon)
                digest.update(repr((report.to_dict(), sims[-1].event_count)
                                   ).encode() + b"\n")
    finally:
        hopes_runtime.Simulator = original
    return digest.hexdigest()[:16]


def test_hopes_runtime_is_pinned():
    # Re-recorded when ``ExecutionReport.horizon_cut`` was added: with
    # that key dropped from each report the digest is still
    # 2b070251a9e58382.
    assert _hopes_digest(200) == "c391a651eb8205e7"

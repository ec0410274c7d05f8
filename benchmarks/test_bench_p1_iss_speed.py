"""P1: the temporally-decoupled ISS (the default ``compiled`` backend)
vs. the per-instruction reference path.

Workload: a straight-line-heavy firmware (an unrolled ALU body inside a
counted loop) -- the shape where one-kernel-event-per-instruction cost
dominates and temporal decoupling pays.  Measured: host instructions per
second for ``quantum=1`` (reference) and the default quantum, plus the
quantum sweep that motivates the default.

Claim shapes: the batched path is >= 3x faster on this workload while the
final architectural state, cycle count and simulated end time stay
bit-identical to the reference run.
"""

from __future__ import annotations

import time

from repro.vp import SoC, SoCConfig
from repro.vp.iss import DEFAULT_QUANTUM

_BODY_OPS = ["add r3, r1, r2", "xor r4, r3, r1", "sub r5, r4, r2",
             "and r6, r5, r3", "or  r7, r6, r1", "addi r8, r7, 13",
             "slt r9, r8, r2", "seq r3, r9, r0", "add r4, r3, r8",
             "xor r5, r4, r7", "sub r6, r5, r1", "and r7, r6, r4",
             "or  r8, r7, r2", "addi r9, r8, -5", "sltu r3, r9, r1",
             "mul r4, r3, r2"]
_TRIPS = 2000

WORKLOAD = ("    li r1, 3\n    li r2, 40\n    li r12, 0\n"
            f"    li r13, {_TRIPS}\nloop:\n"
            + "\n".join(f"    {op}" for op in _BODY_OPS)
            + "\n    addi r12, r12, 1\n    blt r12, r13, loop\n"
            "    sw r3, 100(r0)\n    halt\n")


def run_workload(quantum):
    soc = SoC(SoCConfig(n_cores=1, quantum=quantum), {0: WORKLOAD})
    start = time.perf_counter()
    soc.run()
    elapsed = time.perf_counter() - start
    core = soc.cores[0]
    return {
        "elapsed": elapsed,
        "instr_per_sec": core.instr_count / elapsed,
        "state": core.state(),
        "now": soc.sim.now,
        "events": soc.sim.event_count,
        "mem100": soc.mem(100),
    }


def test_bench_p1_iss_speed(benchmark, show, record_bench):
    def measure():
        return run_workload(1), run_workload(DEFAULT_QUANTUM)

    ref, fast = benchmark.pedantic(measure, rounds=1, iterations=1)
    speedup = fast["instr_per_sec"] / ref["instr_per_sec"]
    show("P1: ISS throughput (host instructions/sec)",
         [[f"reference (quantum=1)", f"{ref['instr_per_sec']:,.0f}",
           f"{ref['events']:,}"],
          [f"compiled (quantum={DEFAULT_QUANTUM})",
           f"{fast['instr_per_sec']:,.0f}", f"{fast['events']:,}"],
          ["speedup", f"{speedup:.1f}x", ""]],
         ["path", "instr/sec", "kernel events"])
    record_bench(instr_per_sec_ref=ref["instr_per_sec"],
                 instr_per_sec_fast=fast["instr_per_sec"],
                 speedup=speedup)

    # Claim shape 1: temporal decoupling buys >= 3x on this workload.
    assert speedup >= 3.0
    # Claim shape 2: it buys it by collapsing kernel events, not by
    # skipping work -- the architectural outcome is bit-identical.
    assert fast["state"] == ref["state"]
    assert fast["now"] == ref["now"]
    assert fast["mem100"] == ref["mem100"]
    assert fast["events"] < ref["events"] / 4


def run_backend(backend, quantum, n_cores=4):
    """One homogeneous-manycore run: ``n_cores`` cores all executing the
    P1 workload, aggregate host throughput across the whole SoC."""
    soc = SoC(SoCConfig(n_cores=n_cores, quantum=quantum,
                        backend=backend),
              {core: WORKLOAD for core in range(n_cores)})
    start = time.perf_counter()
    soc.run()
    elapsed = time.perf_counter() - start
    return {
        "instr_per_sec": sum(c.instr_count for c in soc.cores) / elapsed,
        "states": [c.state() for c in soc.cores],
        "now": soc.sim.now,
        "events": soc.sim.event_count,
    }


def test_bench_p1_backend_sweep(benchmark, show, record_bench):
    """The backend tier ladder on a homogeneous manycore config: the
    lane-vectorized backend must buy >= 1.5x over the superblock-compiled
    backend, all bit-identically to the reference path."""
    legs = [("reference", 1), ("compiled", DEFAULT_QUANTUM),
            ("vector", DEFAULT_QUANTUM)]

    def measure():
        # Best of two rounds per leg: one-shot timings of the fastest
        # legs are noise-dominated at this workload size.
        out = {}
        for backend, quantum in legs:
            runs = [run_backend(backend, quantum) for _ in range(2)]
            out[backend] = max(runs, key=lambda r: r["instr_per_sec"])
        return out

    results = benchmark.pedantic(measure, rounds=1, iterations=1)
    ref = results["reference"]
    compiled = results["compiled"]
    vector = results["vector"]
    lane_speedup = vector["instr_per_sec"] / compiled["instr_per_sec"]
    rows = [[backend, f"{r['instr_per_sec']:,.0f}",
             f"{r['instr_per_sec'] / ref['instr_per_sec']:.1f}x",
             f"{r['events']:,}"]
            for backend, r in results.items()]
    show("P1c: backend sweep (4-core homogeneous manycore)", rows,
         ["backend", "instr/sec", "vs reference", "kernel events"])
    record_bench(
        vector_over_compiled=lane_speedup,
        **{f"instr_per_sec_{backend}": r["instr_per_sec"]
           for backend, r in results.items()})

    # Claim shape: lane lockstep buys 1.5x over compiled on the
    # homogeneous config (the recorded numbers are the measurement
    # either way)...
    assert lane_speedup >= 1.5
    # ...without perturbing a single architectural bit, on any core.
    for r in (compiled, vector):
        assert r["states"] == ref["states"]
        assert r["now"] == ref["now"]
    # The vector tier wins by sharing executions AND collapsing kernel
    # events (one per consumed batch instead of two).
    assert vector["events"] < compiled["events"]


def test_bench_p1_lane_scaling(benchmark, show, record_bench):
    """Lane-count scaling: the vector backend's edge over compiled must
    grow (or at worst hold) as the homogeneous config widens, because
    each extra lane adds only a state copy, not a chain execution."""
    widths = [4, 8, 16]

    def sweep():
        out = {}
        for n in widths:
            legs = {}
            for backend in ("compiled", "vector"):
                runs = [run_backend(backend, DEFAULT_QUANTUM, n_cores=n)
                        for _ in range(2)]
                legs[backend] = max(runs,
                                    key=lambda r: r["instr_per_sec"])
            assert legs["vector"]["states"] == legs["compiled"]["states"]
            assert legs["vector"]["now"] == legs["compiled"]["now"]
            out[n] = legs
        return out

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    curve = {n: legs["vector"]["instr_per_sec"]
             / legs["compiled"]["instr_per_sec"]
             for n, legs in results.items()}
    rows = [[str(n),
             f"{legs['compiled']['instr_per_sec']:,.0f}",
             f"{legs['vector']['instr_per_sec']:,.0f}",
             f"{curve[n]:.2f}x"]
            for n, legs in results.items()]
    show("P1d: lane-count scaling (vector vs compiled)", rows,
         ["cores", "compiled instr/s", "vector instr/s", "vector edge"])
    record_bench(**{f"vector_over_compiled_{n}_cores": curve[n]
                    for n in widths})

    assert curve[4] >= 1.5
    # Widening the group must not erode the edge (20% noise allowance).
    assert curve[16] >= curve[4] * 0.8


def test_bench_p1_quantum_sweep(benchmark, show):
    """Companion: throughput as a function of the quantum, the knob a
    user turns to trade wall-clock speed against sync granularity."""
    quanta = [1, 4, 16, 64, 256, 1024]

    def sweep():
        return {q: run_workload(q) for q in quanta}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    base = results[1]["instr_per_sec"]
    rows = [[str(q), f"{r['instr_per_sec']:,.0f}",
             f"{r['instr_per_sec'] / base:.1f}x", f"{r['events']:,}"]
            for q, r in results.items()]
    show("P1b: quantum sweep", rows,
         ["quantum", "instr/sec", "speedup", "kernel events"])

    # Monotone shape: a larger quantum never loses badly (allow 20% noise
    # jitter between adjacent points), and the end state never drifts.
    for q in quanta[1:]:
        assert results[q]["instr_per_sec"] > base  # all beat the reference
        assert results[q]["state"] == results[1]["state"]
        assert results[q]["now"] == results[1]["now"]

"""R1 (robustness): seeded chaos campaign over the actor JPEG pipeline.

Section V of the paper argues MPSoC failures are "nearly impossible to
reproduce" on real hardware; this bench shows the simulated platform
turning chaos into a controlled, replayable experiment.  A four-actor
JPEG-style pipeline (src -> dct -> quant -> out, one actor per core)
runs under seeded NoC fault campaigns (message drops up to p=0.2) in
three configurations:

- **best-effort** transport under faults: frames are visibly lost (the
  control experiment -- what the paper says happens on real hardware);
- **reliable** transport under the same campaign: ack/retry/dedup
  recovers every frame, end-to-end results are bit-exact, and the
  makespan stays within 3x of fault-free;
- the same seeded campaign run twice: **byte-identical** obs traces --
  the determinism contract of `repro.faults`.
"""

from __future__ import annotations

import json

import pytest

from repro.faults import FaultInjector, FaultPlan, run_fault_campaign
from repro.manycore.actors import ActorSystem
from repro.manycore.machine import Machine
from repro.obs.trace import TraceSink

FRAMES = 40
SEED = 29
DROP_PS = [0.0, 0.1, 0.2]


def expected_value(frame: int) -> int:
    return ((frame * 7 + 1) * 2 + 1) // 3


def run_pipeline(drop_p: float, reliable: bool, with_sink: bool = False,
                 plan: FaultPlan = None):
    """One campaign run; returns (results, makespan, noc, injector, trace)."""
    machine = Machine(4)
    # Retransmission timer tuned just above the worst-case RTT with a
    # gentle backoff: recovery latency then tracks the link delay rather
    # than the default conservative 2x-exponential schedule.
    noc_kwargs = ({"reliable": True, "ack_timeout": 18.0, "backoff": 1.3}
                  if reliable else {})
    system = ActorSystem(machine, noc_kwargs=noc_kwargs)
    sim = system.sim
    sink = TraceSink() if with_sink else None
    injector = None
    if plan is None and drop_p > 0:
        plan = FaultPlan(seed=SEED).drop_messages(drop_p)
    if plan is not None and not plan.empty:
        injector = FaultInjector(sim, plan, sink=sink)
        injector.attach_noc(system.noc)

    src = system.actor("src", 0)
    dct = system.actor("dct", 1)
    quant = system.actor("quant", 2)
    out = system.actor("out", 3)
    results = {}

    def on_tick(actor, message):
        frame = message.payload
        actor.compute(2.0)
        actor.send(dct, (frame, frame * 7 + 1), tag="frame")

    def on_dct(actor, message):
        frame, value = message.payload
        actor.compute(3.0)
        actor.send(quant, (frame, value * 2 + 1), tag="frame")

    def on_quant(actor, message):
        frame, value = message.payload
        actor.compute(1.5)
        actor.send(out, (frame, value // 3), tag="frame")

    def on_out(actor, message):
        frame, value = message.payload
        results[frame] = value

    src.on("tick", on_tick)
    dct.on("frame", on_dct)
    quant.on("frame", on_quant)
    out.on("frame", on_out)

    # Pump the whole frame stream in up front: the pipeline overlaps
    # retransmissions with useful compute, as a streaming decoder would.
    for frame in range(FRAMES):
        system.inject(src, frame, tag="tick")
    makespan = system.run()
    trace = json.dumps(sink.to_chrome(), sort_keys=True) if sink else None
    return results, makespan, system.noc, injector, trace


def chaos_scenario(config, seed):
    """Farm job: one reliable-pipeline run under a serialized fault plan.

    Pure function of (config, seed): the plan dict round-trips through
    :meth:`FaultPlan.from_dict` exactly, and the simulation is seeded
    entirely by the plan -- so the campaign aggregate is byte-identical
    at any worker count.
    """
    plan = FaultPlan.from_dict(config["plan"])
    drop_rule = plan.message_rules.get("drop")
    results, makespan, noc, injector, _ = run_pipeline(
        0.0, reliable=True, plan=plan)
    retries = (injector.metrics.counter("noc.retries").value
               if injector else 0.0)
    return {
        "drop_p": drop_rule.probability if drop_rule else 0.0,
        "delivered": len(results),
        "correct": sum(1 for f, v in results.items()
                       if v == expected_value(f)),
        "makespan": makespan,
        "retries": retries,
        "undeliverable": noc.undeliverable,
    }


def run_experiment(executor=None):
    """The drop-rate sweep as a farm fault campaign (serial in-process
    by default; any `repro.farm.Executor` shards it identically)."""
    plans = [FaultPlan(seed=SEED).drop_messages(p) if p > 0
             else FaultPlan(seed=SEED) for p in DROP_PS]
    outcome = run_fault_campaign(chaos_scenario, plans,
                                 executor=executor,
                                 name="r1-chaos").raise_on_failure()
    rows = {row["drop_p"]: row for row in outcome.results}
    lossy_results, _, _, _, _ = run_pipeline(0.2, reliable=False)
    return rows, len(lossy_results)


def test_bench_r1_chaos(benchmark, show, record_bench):
    rows, lossy_delivered = benchmark.pedantic(run_experiment, rounds=1,
                                               iterations=1)
    baseline = rows[0.0]["makespan"]
    table = [[f"{p:.1f}", rows[p]["delivered"], rows[p]["correct"],
              int(rows[p]["retries"]),
              f"{rows[p]['makespan'] / baseline:.2f}x"]
             for p in DROP_PS]
    table.append(["0.2 (best-effort)", lossy_delivered, "-", "-", "-"])
    show("R1: JPEG actor pipeline under seeded message-drop campaigns",
         table, ["drop p", "frames", "correct", "retries", "slowdown"])

    # Claim shape 1: the reliable layer delivers 100% with bit-exact
    # values at every drop rate up to 0.2.
    for p in DROP_PS:
        assert rows[p]["delivered"] == FRAMES
        assert rows[p]["correct"] == FRAMES
        assert rows[p]["undeliverable"] == 0
    # Claim shape 2: recovery costs real retries but bounded time --
    # within 3x of the fault-free makespan even at p=0.2.
    assert rows[0.2]["retries"] > 0
    worst_slowdown = rows[0.2]["makespan"] / baseline
    assert worst_slowdown <= 3.0
    # Claim shape 3: the control experiment -- best-effort transport
    # under the same campaign loses frames.
    assert lossy_delivered < FRAMES

    record_bench(delivered_frac=rows[0.2]["delivered"] / FRAMES,
                 slowdown_p02=worst_slowdown,
                 retries_p02=rows[0.2]["retries"],
                 lossy_delivered_frac=lossy_delivered / FRAMES)


def test_bench_r1_chaos_replay_is_byte_identical(show):
    """The same seed replays the same campaign: traces match byte for
    byte, delivery schedules included (paper section V's irreproducible
    heisenbug, made reproducible)."""
    first = run_pipeline(0.2, reliable=True, with_sink=True)
    second = run_pipeline(0.2, reliable=True, with_sink=True)
    assert first[4] is not None
    assert first[4] == second[4]
    assert first[0] == second[0]
    assert first[1] == second[1]
    show("R1: replay determinism", [
        ["trace bytes", len(first[4]), len(second[4]), "identical"],
        ["frames", len(first[0]), len(second[0]), "identical"],
    ], ["quantity", "run 1", "run 2", "verdict"])

"""Differential harness: one scenario, four execution paths, zero drift.

A *firmware* scenario runs on the reference ISS backend (``quantum=1``,
the event-exact oracle) and on every batching backend (compiled,
vector) at the scenario's quantum; the harness compares final register
files, pcs, halt/interrupt state, cycle and instruction counts, final
simulation time, the full RAM image and the exact bus access *sequence*
(a total order over all masters).  An *expr* scenario additionally runs
the paired mini-C source through the :mod:`repro.cir` interpreter and
compares its return value against the word the lowered assembly stores.

:func:`differential_job` is the farm job (module-level, pure in
``(config, seed)``): it regenerates its scenario from the seed, so job
configs stay tiny and campaigns cache and replay byte-identically.
Divergent jobs carry their full scenario in the result for the shrinker.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Optional

from repro.cir import parse, run_program
from repro.core.serde import canonical_json
from repro.farm import Campaign, Executor
from repro.gen.expr import RESULT_ADDR, generate_expr_scenario
from repro.gen.firmware import generate_scenario
from repro.vp import SoC, SoCConfig, assemble

BATCHING_BACKENDS = ("compiled", "vector")

# Snapshot fields a batching run must reproduce bit-for-bit.
COMPARED_FIELDS = ("regs", "pc", "halted", "interrupts_enabled", "in_isr",
                   "cycles", "instrs", "now", "ram", "accesses")

MAX_EVENTS = 1_000_000


def run_firmware_leg(scenario: Dict[str, Any], backend: str,
                     quantum: int) -> Dict[str, Any]:
    """Execute one scenario on one backend; return the full JSON-pure
    architectural snapshot (RAM image and access list included)."""
    n_cores = scenario["n_cores"]
    programs = {int(core): source
                for core, source in scenario["programs"].items()}
    irq = scenario.get("irq")
    irq_vector = None
    if irq is not None:
        irq_vector = assemble(
            scenario["programs"][str(irq["core"])]).label(irq["isr_label"])
    config = SoCConfig(n_cores=n_cores, ram_words=scenario["ram_words"],
                       quantum=quantum, backend=backend,
                       irq_vector=irq_vector)
    soc = SoC(config, programs)
    accesses: List[List[Any]] = []
    soc.bus.observe(lambda kind, addr, value, master:
                    accesses.append([kind, addr, value, master]))
    if irq is not None:
        soc.intcs[irq["core"]].add_source(0, soc.timers[irq["timer"]].irq)
        soc.intcs[irq["core"]].write(1, 1)  # unmask line 0
    soc.run(max_events=MAX_EVENTS)
    states = [core.state() for core in soc.cores]
    return {
        "regs": [list(state.regs) for state in states],
        "pc": [state.pc for state in states],
        "halted": [state.halted for state in states],
        "interrupts_enabled": [state.interrupts_enabled
                               for state in states],
        "in_isr": [state.in_isr for state in states],
        "cycles": [core.cycle_count for core in soc.cores],
        "instrs": [core.instr_count for core in soc.cores],
        "now": soc.sim.now,
        "ram": [soc.mem(i) for i in range(scenario["ram_words"])],
        "accesses": accesses,
    }


def snapshot_digest(snapshot: Dict[str, Any]) -> str:
    """Content address of one leg's full snapshot."""
    return hashlib.sha256(
        canonical_json(snapshot).encode("utf-8")).hexdigest()[:16]


def _mismatches(reference: Dict[str, Any], other: Dict[str, Any],
                backend: str) -> List[Dict[str, Any]]:
    found = []
    for field in COMPARED_FIELDS:
        if reference[field] != other[field]:
            found.append({"backend": backend, "field": field})
    return found


def compare_firmware(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Run a firmware scenario on the oracle and every batching backend;
    report where (if anywhere) they drift."""
    reference = run_firmware_leg(scenario, "reference", quantum=1)
    if not all(reference["halted"]):
        # Generated programs terminate by construction; a reference run
        # that hit the event cutoff is a broken *scenario*, not a
        # backend divergence -- truncated runs land at arbitrary
        # architectural points and would compare as false positives
        # (the shrinker treats this rejection as "candidate invalid").
        raise ValueError(
            "scenario did not terminate on the reference path "
            f"(halted={reference['halted']}); generated programs must "
            "halt by construction")
    mismatches: List[Dict[str, Any]] = []
    for backend in BATCHING_BACKENDS:
        leg = run_firmware_leg(scenario, backend, scenario["quantum"])
        mismatches.extend(_mismatches(reference, leg, backend))
    return {"diverged": bool(mismatches), "mismatches": mismatches,
            "digest": snapshot_digest(reference)}


def compare_expr(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Run a paired C/asm scenario: the mini-C interpreter's return value
    against the result word of every ISS backend."""
    expected = run_program(parse(scenario["c_source"]),
                           args=list(scenario["args"])).return_value
    mismatches: List[Dict[str, Any]] = []
    values = {"interp": expected}
    for backend, quantum in [("reference", 1)] + \
            [(name, 64) for name in BATCHING_BACKENDS]:
        soc = SoC(SoCConfig(n_cores=1, backend=backend, quantum=quantum),
                  {0: scenario["asm_source"]})
        soc.run(max_events=MAX_EVENTS)
        value = soc.mem(RESULT_ADDR)
        values[backend] = value
        if value != expected:
            mismatches.append({"backend": backend, "field": "result",
                               "expected": expected, "got": value})
    return {"diverged": bool(mismatches), "mismatches": mismatches,
            "digest": hashlib.sha256(
                canonical_json(values).encode("utf-8")).hexdigest()[:16]}


def compare_scenario(scenario: Dict[str, Any]) -> Dict[str, Any]:
    """Dispatch on scenario kind; the one entry point shrinker checks
    and pinned regressions call."""
    if scenario["kind"] == "expr":
        return compare_expr(scenario)
    return compare_firmware(scenario)


# ---------------------------------------------------------------------------
# farm integration
# ---------------------------------------------------------------------------

def differential_job(config: Optional[Dict[str, Any]],
                     seed: int) -> Dict[str, Any]:
    """Farm job: regenerate the scenario for ``seed`` and compare all
    execution paths.  Pure in ``(config, seed)``; the result is plain
    JSON and carries the scenario only when it diverged (the shrinker's
    input)."""
    config = config or {}
    kind = config.get("kind", "firmware")
    if kind == "expr":
        scenario = generate_expr_scenario(seed)
    else:
        scenario = generate_scenario(seed, knobs=config.get("knobs"))
    report = compare_scenario(scenario)
    result = {"seed": seed, "kind": kind, "diverged": report["diverged"],
              "digest": report["digest"],
              "mismatches": report["mismatches"]}
    if report["diverged"]:
        result["scenario"] = scenario
    return result


def run_fuzz_campaign(count: int, base_seed: int = 0,
                      kinds: tuple = ("firmware", "expr"),
                      knobs: Optional[Dict[str, float]] = None,
                      executor: Optional[Executor] = None,
                      name: str = "fuzz", **farm: Any) -> Dict[str, Any]:
    """Sweep ``count`` seeds through :func:`differential_job` as a farm
    campaign; kinds alternate across seeds.  Execution policy comes
    from ``executor=`` and/or the uniform farm keywords (``jobs=``,
    ``backend=``, ``cache=``, ``timeout=``, ...).  Everything in the
    report except ``stats`` (operational telemetry: worker count, cache
    hits, wall time) is deterministic -- ``aggregate_sha`` in
    particular is byte-identical across ``jobs=1``, any backend and
    warm-cache re-runs."""
    from repro.farm.engine import resolve_executor
    campaign = Campaign.build(name,
                              executor=resolve_executor(executor, **farm))
    for index in range(count):
        kind = kinds[index % len(kinds)]
        config: Dict[str, Any] = {"kind": kind}
        if kind == "firmware" and knobs is not None:
            config["knobs"] = dict(knobs)
        campaign.add(differential_job, config=config,
                     seed=base_seed + index)
    result = campaign.run().raise_on_failure()
    divergent = [r for r in result.results if r["diverged"]]
    return {
        "name": name, "programs": count, "base_seed": base_seed,
        "divergences": len(divergent),
        "divergent_seeds": [r["seed"] for r in divergent],
        "divergent": divergent,
        "aggregate_sha": hashlib.sha256(
            result.aggregate_json().encode("utf-8")).hexdigest()[:16],
        "stats": result.stats(),
    }


__all__ = ["BATCHING_BACKENDS", "COMPARED_FIELDS", "MAX_EVENTS",
           "compare_expr", "compare_firmware", "compare_scenario",
           "differential_job", "run_firmware_leg", "run_fuzz_campaign",
           "snapshot_digest"]

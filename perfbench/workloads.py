"""The four benchmark workloads.

Each workload is a :class:`Workload` with the same steps, so the harness
in ``run.py`` can time them uniformly:

- ``generate(seed)``  -- the seeded inputs (set-up);
- ``setup()``         -- the rest of set-up: assemble and wire a SoC, or
  spawn the farm daemons and warm them with one job each;
- ``prepare()``       -- what one timed pass needs (untimed);
- ``execute(built)``  -- the timed pass;
- ``observe(built, result)`` -- a :class:`PassRecord`: the output digest
  and every deterministic count, read from public state after the run;
- ``release(built)``  -- untimed clean-up after a pass;
- ``oracle()``        -- the reference digest for a seed that has no
  recorded value, computed outside every timed region.

The workloads drive only public entry points (``SoC``/``SoCConfig``/
``assemble``, ``MapsFlow.run``, ``run_fault_campaign``) and never attach
an observer to the VP workloads: any kernel observer forces the
event-exact path and would measure a different program.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.core.serde import canonical_json
from repro.faults import FaultPlan, run_fault_campaign
from repro.farm import shutdown_daemons
from repro.farm.backends import warm_worker_pids
from repro.maps import MapsFlow, PEClass, PlatformSpec
from repro.vp import SoC, SoCConfig
from repro.vp.bus import BusError
from repro.vp.iss import decode_program
from repro.vp.soc import INTC_BASE, INTC_STRIDE, MBOX_BASE, MBOX_STRIDE, \
    SEM_BASE, TIMER_BASE, TIMER_STRIDE


def digest(value: Any) -> str:
    return hashlib.sha256(canonical_json(value).encode("utf-8")).hexdigest()


@dataclass
class PassRecord:
    """What one pass produced: the checked output, and the counts that
    must repeat exactly on every pass of one seed."""

    digest: str
    ops: int                 # operations this pass completed (runs, flows, jobs)
    instructions: int        # simulated instructions retired
    failed: int = 0          # operations whose output was wrong
    counts: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# virtual-platform helpers
# ---------------------------------------------------------------------------

def soc_state(soc: SoC) -> Dict[str, Any]:
    """The architectural end state a pass is checked on."""
    return {
        "cores": [[c.pc, list(c.regs), c.halted, c.cycle_count,
                   c.instr_count] for c in soc.cores],
        "ram": soc.ram.words,
        "now": soc.sim.now,
    }


def soc_counts(soc: SoC) -> Dict[str, float]:
    """Public counters of one finished SoC run, named by layer."""
    instructions = sum(c.instr_count for c in soc.cores)
    events = soc.sim.event_count
    superblocks = 0
    for program in {id(c.program): c.program for c in soc.cores}.values():
        decoded = decode_program(program)
        superblocks += decoded.superblocks().compiled_count
        superblocks += decoded.lane_superblocks().compiled_count
    groups = soc.lane_groups
    retired = sum(g.lanes_retired for g in groups)
    solo = sum(g.solo_steps for g in groups)
    sems = soc.semaphores
    attempts = sum(sems.acquire_attempts)
    return {
        "desim.events": events,
        "desim.events_per_kinstr": 1000.0 * events / max(instructions, 1),
        "vp.iss.instructions": instructions,
        "vp.iss.cycles": sum(c.cycle_count for c in soc.cores),
        "vp.jit.superblocks": superblocks,
        "vp.lanes.windows": sum(g.windows for g in groups),
        "vp.lanes.vector_calls": sum(g.vector_calls for g in groups),
        "vp.lanes.shared": sum(g.shared for g in groups),
        "vp.lanes.solo_steps": solo,
        "vp.lanes.fallbacks": sum(g.fallbacks for g in groups),
        "vp.lanes.lockstep_frac": retired / max(retired + solo, 1),
        "vp.bus.reads": soc.bus.reads,
        "vp.bus.writes": soc.bus.writes,
        "vp.peripherals.sem_acquire_ratio":
            sum(sems.acquire_successes) / max(attempts, 1),
    }


class Workload:
    """Defaults shared by the workloads (see the module docstring)."""

    name = ""

    def setup(self) -> Any:
        return self.prepare()

    def prepare(self) -> Any:
        raise NotImplementedError

    def release(self, built: Any) -> None:
        pass


SEM_LANE = SEM_BASE          # guards the lane-id counter at boot
SEM_SUM = SEM_BASE + 1       # guards the shared reduction word


class VpLockstep(Workload):
    """16 cores, one shared program, ``backend="vector"``.

    Each core takes a distinct lane id at boot through the semaphore-
    counter idiom, loads its own seeded operands, runs a compute-heavy
    ALU loop, and adds into a semaphore-protected shared sum once per
    outer iteration.  Lanes hold different values, so the lane-compiled
    blocks really run."""

    name = "vp_lockstep"
    N_CORES = 16
    OUTER = 6
    INNER = 400
    SEEDS, RESULTS, SUM, LANE_CTR = 0x100, 0x200, 0x300, 0x301
    BODY = ["add r6, r4, r5", "xor r7, r6, r4", "sub r8, r7, r5",
            "and r9, r8, r6", "or  r6, r9, r4", "addi r7, r6, 13",
            "slt r8, r7, r5", "seq r9, r8, r0", "add r5, r9, r7",
            "xor r6, r5, r8", "sub r7, r6, r4", "and r8, r7, r5",
            "or  r9, r8, r6", "addi r5, r9, -5", "sltu r8, r5, r4",
            "mul r9, r8, r5", "add r4, r4, r9", "xor r5, r5, r6"]

    def generate(self, seed: int) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        words = " ".join(str(rng.randrange(1, 1 << 20))
                         for _ in range(2 * self.N_CORES))
        body = "\n".join(f"    {op}" for op in self.BODY)
        self.source = f"""
boot:
    lw   r1, {SEM_LANE}(r0)
    bne  r1, r0, boot
    lw   r2, {self.LANE_CTR}(r0)
    addi r3, r2, 1
    sw   r3, {self.LANE_CTR}(r0)
    sw   r0, {SEM_LANE}(r0)
    add  r3, r2, r2
    lw   r4, {self.SEEDS}(r3)
    lw   r5, {self.SEEDS + 1}(r3)
    li   r12, 0
    li   r13, {self.OUTER}
outer:
    li   r10, 0
    li   r11, {self.INNER}
inner:
{body}
    addi r10, r10, 1
    blt  r10, r11, inner
lock:
    lw   r1, {SEM_SUM}(r0)
    bne  r1, r0, lock
    lw   r1, {self.SUM}(r0)
    add  r1, r1, r4
    sw   r1, {self.SUM}(r0)
    sw   r0, {SEM_SUM}(r0)
    addi r12, r12, 1
    blt  r12, r13, outer
    sw   r4, {self.RESULTS}(r2)
    halt
.org {self.SEEDS}
    .word {words}
"""

    def prepare(self, backend: str = "vector", quantum: int = 64) -> SoC:
        return SoC(SoCConfig(n_cores=self.N_CORES, backend=backend,
                             quantum=quantum),
                   {core: self.source for core in range(self.N_CORES)})

    def execute(self, soc: SoC) -> None:
        soc.run()

    def observe(self, soc: SoC, _result: Any = None) -> PassRecord:
        counts = soc_counts(soc)
        return PassRecord(digest(soc_state(soc)), 1,
                          int(counts["vp.iss.instructions"]), counts=counts)

    def oracle(self) -> str:
        soc = self.prepare("reference", 1)
        soc.run()
        return digest(soc_state(soc))


class VpContended(VpLockstep):
    """8 cores, 8 distinct seeded programs, ``backend="compiled"``.

    Short ALU runs between shared-RAM read-modify-writes, semaphore
    spinlocks and mailbox send/poll, so superblocks end at every bus op;
    cores 0 and 1 also take a periodic timer interrupt."""

    name = "vp_contended"
    N_CORES = 8
    ITERATIONS = 300
    IRQ_CORES = (0, 1)
    TIMER_PERIOD = 400
    IRQ_VECTOR = 1
    SHARED, COUNTERS, TICKS, RESULTS = 0x100, 0x110, 0x120, 0x130
    ALU_OPS = ("add", "sub", "xor", "and", "or")

    def _program(self, rng: random.Random, core: int) -> str:
        timer = TIMER_BASE + core * TIMER_STRIDE
        intc = INTC_BASE + core * INTC_STRIDE
        mbox = MBOX_BASE + core * MBOX_STRIDE
        alu = "\n".join(
            f"    {rng.choice(self.ALU_OPS)} r{rng.randrange(5, 10)}, "
            f"r{rng.randrange(4, 10)}, r{rng.randrange(4, 10)}"
            for _ in range(4))
        shared = self.SHARED + rng.randrange(4)
        sem = 2 + core % 2
        counter = self.COUNTERS + sem
        irq = core in self.IRQ_CORES
        timer_on = (f"    li   r1, {self.TIMER_PERIOD}\n"
                    f"    sw   r1, {timer + 1}(r0)\n"
                    f"    li   r1, 1\n"
                    f"    sw   r1, {intc + 1}(r0)\n"
                    f"    li   r1, 3\n"
                    f"    sw   r1, {timer}(r0)\n"
                    f"    ei\n") if irq else ""
        timer_off = (f"    di\n"
                     f"    sw   r0, {timer}(r0)\n") if irq else ""
        return f"""
    jmp  main
isr:
    sw   r0, {timer + 3}(r0)
    li   r1, 1
    sw   r1, {intc + 2}(r0)
    lw   r1, {self.TICKS + core}(r0)
    addi r1, r1, 1
    sw   r1, {self.TICKS + core}(r0)
    iret
main:
    li   r4, {rng.randrange(1, 1 << 16)}
    li   r5, {rng.randrange(1, 1 << 16)}
    li   r6, {rng.randrange(1, 1 << 16)}
    li   r7, 0
    li   r1, {(core + 1) % self.N_CORES}
    sw   r1, {mbox}(r0)
{timer_on}    li   r12, 0
    li   r13, {self.ITERATIONS}
loop:
{alu}
    lw   r2, {shared}(r0)
    add  r2, r2, r9
    sw   r2, {shared}(r0)
spin:
    lw   r1, {SEM_BASE + sem}(r0)
    bne  r1, r0, spin
    lw   r2, {counter}(r0)
    addi r2, r2, {rng.randrange(1, 100)}
    sw   r2, {counter}(r0)
    sw   r0, {SEM_BASE + sem}(r0)
    sw   r6, {mbox + 1}(r0)
    lw   r1, {mbox + 3}(r0)
    beq  r1, r0, skip
    lw   r1, {mbox + 2}(r0)
    add  r7, r7, r1
skip:
    addi r12, r12, 1
    blt  r12, r13, loop
{timer_off}    sw   r7, {self.RESULTS + core}(r0)
    halt
"""

    def generate(self, seed: int) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        self.sources = {core: self._program(rng, core)
                        for core in range(self.N_CORES)}

    def prepare(self, backend: str = "compiled", quantum: int = 64) -> SoC:
        soc = SoC(SoCConfig(n_cores=self.N_CORES, backend=backend,
                            quantum=quantum, irq_vector=self.IRQ_VECTOR),
                  self.sources)
        for core in self.IRQ_CORES:
            soc.intcs[core].add_source(0, soc.timers[core].irq)
        return soc


# ---------------------------------------------------------------------------
# MAPS: the paper's Figure-1 flow on the JPEG-encoder skeleton
# ---------------------------------------------------------------------------

def _c_div(a: int, b: int) -> int:
    """C division: truncates toward zero."""
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


class MapsJpeg(Workload):
    """``MapsFlow.run`` on 2 RISC + 2 DSP with ``split_k=4``, a
    multi-iteration MVP run and the annealing refinement loop."""

    name = "maps_jpeg"
    N = 256
    ITERATIONS = 4
    REFINE_ITERATIONS = 400
    MAKESPAN = 20698.999999999996

    def generate(self, seed: int) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        self.a = rng.randrange(3, 200, 2)
        self.b = rng.randrange(256)
        self.q0 = rng.randrange(2, 9)
        self.q1 = rng.randrange(1, 5)
        n = self.N
        self.source = f"""
int pixels[{n}];
int shifted[{n}];
int coeff[{n}];
int quant[{n}];
int qtable[8];
int main() {{
  int i;
  int bits = 0;
  for (i = 0; i < 8; i++) {{ qtable[i] = {self.q0} + i * {self.q1}; }}
  for (i = 0; i < {n}; i++) {{ pixels[i] = (i * {self.a} + {self.b}) % 256; }}
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

    def expected_bits(self) -> int:
        """The same encoder written directly in Python: the oracle for
        the flow's sequential and generated-parallel results."""
        qtable = [self.q0 + i * self.q1 for i in range(8)]
        shifted = [(i * self.a + self.b) % 256 - 128 for i in range(self.N)]
        bits = 0
        for i in range(self.N):
            k = i % 8
            coeff = shifted[i] * (8 - k) - _c_div(shifted[i], 2)
            bits += abs(_c_div(coeff, qtable[k])) % 16
        return bits

    def prepare(self) -> MapsFlow:
        platform = PlatformSpec("terminal", channel_setup_cost=5.0,
                                channel_word_cost=0.05)
        platform.add_pe("arm0", PEClass.RISC)
        platform.add_pe("arm1", PEClass.RISC)
        platform.add_pe("dsp0", PEClass.DSP)
        platform.add_pe("dsp1", PEClass.DSP)
        return MapsFlow(platform)

    def execute(self, flow: MapsFlow):
        return flow.run(self.source, split_k=4, app_name="jpeg",
                        iterations=self.ITERATIONS, refine=True,
                        refine_iterations=self.REFINE_ITERATIONS)

    def observe(self, _flow: MapsFlow, report) -> PassRecord:
        ops = (report.sequential_result.op_count
               + report.parallel_result.op_count)
        out = {"makespan": report.mvp.makespan,
               "bits": [report.sequential_result.return_value,
                        report.parallel_result.return_value],
               "semantics_preserved": report.semantics_preserved}
        return PassRecord(digest(out), 1, ops,
                          counts={"cir.ops": ops,
                                  "maps.tasks": len(report.expanded_graph)})

    def oracle(self) -> str:
        """The encoder's result from the Python model, and the MVP
        makespan of the default seed: the task costs come from a static
        cost model over the program's structure, which the seed does
        not change."""
        bits = self.expected_bits()
        return digest({"makespan": self.MAKESPAN, "bits": [bits, bits],
                       "semantics_preserved": True})


# ---------------------------------------------------------------------------
# fault campaign on warm farm daemons
# ---------------------------------------------------------------------------

FAULT_CORES = 4
FAULT_SLICE = 96
FAULT_DATA, FAULT_RESULTS, FAULT_TOTAL = 0x100, 0x300, 0x310
FAULT_SEM = SEM_BASE


def fault_firmware(core: int) -> str:
    """Core ``core`` folds its slice of the shared data into a checksum,
    then adds it into a semaphore-protected total."""
    return f"""
    li   r2, {FAULT_DATA + core * FAULT_SLICE}
    li   r3, {FAULT_SLICE}
    li   r4, {core + 1}
    li   r5, 0
    li   r8, 31
loop:
    add  r6, r2, r5
    lw   r7, 0(r6)
    mul  r4, r4, r8
    xor  r4, r4, r7
    addi r5, r5, 1
    blt  r5, r3, loop
spin:
    lw   r1, {FAULT_SEM}(r0)
    bne  r1, r0, spin
    lw   r1, {FAULT_TOTAL}(r0)
    add  r1, r1, r4
    sw   r1, {FAULT_TOTAL}(r0)
    sw   r0, {FAULT_SEM}(r0)
    sw   r4, {FAULT_RESULTS + core}(r0)
    halt
"""


def fault_job(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Farm job: one run of the 4-core scenario under one fault plan.

    Each job assembles its firmware, runs on the reference path the
    injector forces, and classifies the run against the fault-free
    result: ``trap`` (a core raised), ``hang`` (the event budget ran
    out first), ``sdc`` (wrong result) or ``masked``."""
    programs = {core: fault_firmware(core) for core in range(FAULT_CORES)}
    programs[0] += ".org {}\n    .word {}\n".format(
        FAULT_DATA, " ".join(str(v) for v in config["data"]))
    soc = SoC(SoCConfig(n_cores=FAULT_CORES), programs)
    handle = soc.instrument(faults=config["plan"])
    outcome = None
    try:
        soc.run(max_events=config["budget"])
    except (RuntimeError, BusError, IndexError):
        outcome = "trap"
    result = soc.ram.words[FAULT_RESULTS:FAULT_TOTAL + 1]
    if outcome is None:
        if not soc.all_halted:
            outcome = "hang"
        elif result == config["golden"]:
            outcome = "masked"
        else:
            outcome = "sdc"
    sems = soc.semaphores
    return {"outcome": outcome, "result": result,
            "injected": len(handle.injector.injected),
            "instructions": sum(c.instr_count for c in soc.cores),
            "cycles": sum(c.cycle_count for c in soc.cores),
            "events": soc.sim.event_count, "now": soc.sim.now,
            "bus": [soc.bus.reads, soc.bus.writes],
            "sem": [sum(sems.acquire_attempts),
                    sum(sems.acquire_successes)]}


class FaultFarm(Workload):
    """A batch of seeded RAM and register flip plans over the 4-core
    scenario, run through ``run_fault_campaign`` on warm daemon workers
    with a fresh cache directory per pass."""

    name = "fault_farm"
    JOBS = 64
    HANG_BUDGET = 1.25  # event budget, as a multiple of the fault-free run

    def __init__(self, workdir: str) -> None:
        self.workdir = workdir
        self.workers = max(1, min(2, len(os.sched_getaffinity(0))))

    def generate(self, seed: int) -> None:
        rng = random.Random(f"{seed}:{self.name}")
        data = [rng.randrange(1 << 20) for _ in range(FAULT_CORES
                                                      * FAULT_SLICE)]
        clean = fault_job({"data": data, "plan": FaultPlan(0).to_dict(),
                           "budget": None, "golden": None}, 0)
        self.base = {"data": data, "golden": clean["result"],
                     "budget": int(clean["events"] * self.HANG_BUDGET)}
        self.plans = []
        for index in range(self.JOBS):
            plan = FaultPlan(seed=seed * 1000 + index)
            draw = plan.rng("flip")
            # Late faults keep a trapped job's cost near a clean one's,
            # so the seed moves the outcome mix but hardly the work.
            at = draw.uniform(0.5, 0.95) * clean["now"]
            if index % 2:
                plan.flip_register(draw.randrange(FAULT_CORES),
                                   draw.randrange(1, 9), draw.randrange(32),
                                   at=at)
            else:
                plan.flip_ram_bit(FAULT_DATA + draw.randrange(
                    FAULT_TOTAL + 1 - FAULT_DATA), draw.randrange(32), at=at)
            self.plans.append(plan)

    def setup(self) -> float:
        """Spawn the daemon workers and warm them with one job each;
        returns the spawn time alone."""
        shutdown_daemons()
        start = time.perf_counter()
        pids = warm_worker_pids(self.workers)
        spawn = time.perf_counter() - start
        # One worker per CPU: each worker's speed is then the speed of
        # one CPU the harness calibrates.
        cpus = sorted(os.sched_getaffinity(0))
        for index, pid in enumerate(pids):
            os.sched_setaffinity(pid, {cpus[index % len(cpus)]})
        run_fault_campaign(fault_job, self.plans[:self.workers],
                           base_config=self.base, name="warm-up",
                           jobs=self.workers, backend="daemon")
        return spawn

    def prepare(self) -> str:
        """A fresh, empty cache directory for one pass."""
        return tempfile.mkdtemp(dir=self.workdir)

    def execute(self, cache: str):
        return run_fault_campaign(
            fault_job, self.plans, base_config=self.base, name=self.name,
            jobs=self.workers, backend="daemon", cache=cache)

    def release(self, cache: str) -> None:
        shutil.rmtree(cache, ignore_errors=True)

    def observe(self, _built: Any, result) -> PassRecord:
        results = result.results
        failed = len(result.failures)
        outcomes = {kind: 0 for kind in ("masked", "sdc", "hang", "trap")}
        for job in results:
            if job is not None:
                outcomes[job["outcome"]] += 1
        counts = {f"faults.outcome.{k}": v for k, v in outcomes.items()}
        jobs = [job for job in results if job is not None]
        instructions = sum(j["instructions"] for j in jobs)
        events = sum(j["events"] for j in jobs)
        attempts = sum(j["sem"][0] for j in jobs)
        counts.update({
            "faults.injected": sum(j["injected"] for j in jobs),
            "desim.events": events,
            "desim.events_per_kinstr": 1000.0 * events / max(instructions, 1),
            "vp.iss.instructions": instructions,
            "vp.iss.cycles": sum(j["cycles"] for j in jobs),
            "vp.bus.reads": sum(j["bus"][0] for j in jobs),
            "vp.bus.writes": sum(j["bus"][1] for j in jobs),
            "vp.peripherals.sem_acquire_ratio":
                sum(j["sem"][1] for j in jobs) / max(attempts, 1),
            "farm.jobs_executed": result.executed,
            "farm.jobs_failed": failed,
        })
        elapsed = [o.elapsed for o in result.outcomes]
        return PassRecord(
            digest(result.aggregate_json()), len(results), instructions,
            failed=failed,
            counts=counts,
            samples={"job_s": elapsed,
                     "busy_frac": [sum(elapsed) / (result.wall_seconds
                                                   * self.workers)]})

    def inline(self, count: int):
        """The first ``count`` jobs on the in-process inline backend."""
        return run_fault_campaign(fault_job, self.plans[:count],
                                  base_config=self.base, name=self.name)

    def oracle(self) -> str:
        """The inline (in-process, serial) farm oracle's aggregate."""
        return digest(self.inline(self.JOBS).aggregate_json())

"""Exact whole-SoC checkpoint/restore.

A :class:`Snapshot` is a *versioned, JSON-pure, digest-sealed* image of
one :class:`~repro.vp.soc.SoC` -- architectural state plus an exact
reconstruction spec for the kernel event queue -- such that a run
restored from it is **bit-identical** to the uninterrupted run: same
final RAM and register files, same end time, same bus-access order,
same observable trace suffix, on every ISS backend.

Python generators cannot be pickled, so the snapshot never serializes a
process.  Instead:

**Parking.**  ``checkpoint()`` acquires the debugger's sync contract on
every core and steps the kernel until each non-halted core is suspended
at the reference path's per-instruction ``yield Delay(cycles)`` (its
``_wait_state == "ref"``) with no speculative lane batch pending.  At
that suspension point the continuation is a pure function of
architectural state -- the pending instruction is ``program[pc]`` --
which is *not* true of the batching tiers' mid-batch yields (registers
already hold end-of-batch values there).  Parking executes exactly what
the uninterrupted run would execute (per-instruction synchronization is
architecturally invisible, the PR-2/PR-7 equivalence invariant), so
"checkpoint at cycle N" means "the earliest parkable boundary at or
after N" and the capturing run continues bit-identically afterwards.

**Claims.**  Every non-cancelled item in the kernel queue must be
*claimed* by an owner that knows how to re-create it: a core's recycled
resume record, a timer's armed expiry, the DMA engine's in-flight
transfer wakeup, or a fault injector's scheduled fault / stuck-irq
release.  An unclaimed item (or an alive process outside the SoC, e.g.
an OS-scheduler or RT-executive process) raises :class:`SnapshotError`
-- exactness is never silently approximated.

**Rank-ordered restore.**  Claims are recorded with their global rank
-- the queue order ``(time, priority, seq)`` -- and re-armed in exactly
that order, so relative sequence numbers (the tie-break within one
``(time, priority)`` class) are preserved.  Core continuations are
the normal execution loop spawned as ``core._run(resume=True)`` (see
:meth:`~repro.vp.iss.Cpu._run`) with ``start_delay = wake - now``: its
first iteration has **no leading yield** and executes *at* the wake
event, retiring the parked instruction before the loop carries on.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict
from typing import Any, Dict, List

from repro.core.serde import canonical_json, json_roundtrip

SNAP_VERSION = "repro.snap/1"

_MAX_SETTLE_EVENTS = 1_000_000


class SnapshotError(Exception):
    """Raised when a platform cannot be exactly captured or restored."""


# ----------------------------------------------------------------------
# structural signature
# ----------------------------------------------------------------------

def _program_digest(program: Any) -> str:
    if program.source:
        payload = program.source
    else:
        payload = (repr(program.instructions) + "|"
                   + repr(sorted(program.data.items())))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _plan_digest(injector: Any) -> str:
    payload = canonical_json(injector.plan.to_dict())
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def _signature(soc: Any, injector: Any) -> Dict[str, Any]:
    """What must match between the captured and the restoring platform.

    State is restored; *structure* (config, programs, fault plan) must be
    rebuilt identically by the caller -- including any interrupt-source
    wiring (``intc.add_source``), which lives in builder code the
    snapshot cannot see.
    """
    return {
        "config": json_roundtrip(asdict(soc.config)),
        "programs": [_program_digest(core.program) for core in soc.cores],
        "plan": _plan_digest(injector) if injector is not None else None,
    }


# ----------------------------------------------------------------------
# parking
# ----------------------------------------------------------------------

def _parked(soc: Any) -> bool:
    for core in soc.cores:
        if core.halted:
            continue
        proc = core.process
        if proc is None or not proc.alive:
            raise SnapshotError(
                f"{core.name} is not halted but its process is dead")
        if core._wait_state != "ref" or core._lane_pending is not None:
            return False
    return True


def _settle(soc: Any) -> None:
    """Drive every core to a reference-path suspension point.

    Runs under ``acquire_sync``: in-flight batches complete at their
    scheduled wake (executing exactly the uninterrupted instruction
    stream), after which each core runs per-instruction and is parked at
    its next ``yield``.
    """
    sim = soc.sim
    for _ in range(_MAX_SETTLE_EVENTS):
        if _parked(soc):
            return
        if not sim.step():
            break
    if not _parked(soc):
        raise SnapshotError(
            "could not park every core at a reference-path boundary "
            f"within {_MAX_SETTLE_EVENTS} events")


# ----------------------------------------------------------------------
# claims
# ----------------------------------------------------------------------

def _live(item: Any) -> bool:
    return item is not None and not item.cancelled and not item.consumed


def _rearm_of(proc: Any, what: str) -> Any:
    item = proc._rearm_item
    if not _live(item):
        raise SnapshotError(f"{what} has no claimable pending wakeup")
    return item


def _claims(soc: Any, injector: Any) -> List[Dict[str, Any]]:
    """Claim every queued kernel item; rank-ordered reconstruction spec."""
    sim = soc.sim
    owners: Dict[int, Any] = {}
    known_procs = set()

    for core in soc.cores:
        proc = core.process
        if proc is None or not proc.alive:
            continue
        known_procs.add(id(proc))
        item = _rearm_of(proc, core.name)
        if item.priority != core.priority:
            raise SnapshotError(
                f"{core.name} wakeup at unexpected priority "
                f"{item.priority}")
        owners[id(item)] = {"kind": "core", "index": core.core_id}

    for index, timer in enumerate(soc.timers):
        if _live(timer._armed_item):
            owners[id(timer._armed_item)] = {"kind": "timer",
                                             "index": index}

    dma = soc.dma
    if dma.busy:
        proc = dma._xfer_proc
        if proc is None or not proc.alive:
            raise SnapshotError("dma is busy but its transfer process "
                                "is dead")
        known_procs.add(id(proc))
        item = _rearm_of(proc, "dma transfer")
        owners[id(item)] = {"kind": "dma", "index": 0}

    if injector is not None:
        for item, kind, index in injector.snap_claims():
            owners[id(item)] = {"kind": kind, "index": index}

    for proc in sim.processes:
        if proc.alive and id(proc) not in known_procs:
            raise SnapshotError(
                f"process {proc.name!r} is not owned by the SoC; "
                "checkpointing covers cores, timers, DMA and fault "
                "injection only")

    entries = []
    for item in sim.queued_items():
        owner = owners.pop(id(item), None)
        if owner is None:
            raise SnapshotError(
                f"unclaimed kernel item at t={item.time} "
                f"(priority {item.priority}); cannot capture exactly")
        entries.append((item.time, item.priority, item.seq, owner))
    if owners:
        raise SnapshotError("owner bookkeeping references items missing "
                            "from the kernel queue")

    entries.sort(key=lambda e: (e[0], e[1], e[2]))
    return [{"time": time, "priority": priority, **owner}
            for time, priority, _seq, owner in entries]


# ----------------------------------------------------------------------
# capture
# ----------------------------------------------------------------------

def _capture(soc: Any, injector: Any, note: str,
             embed_programs: bool) -> Dict[str, Any]:
    sim = soc.sim
    queue = _claims(soc, injector)

    cores = []
    for core in soc.cores:
        cores.append({
            "pc": core.pc,
            "regs": list(core.regs),
            "halted": core.halted,
            "interrupts_enabled": core.interrupts_enabled,
            "in_isr": core.in_isr,
            "epc": core.epc,
            "saved_regs": list(core.saved_regs),
            "cycle_count": core.cycle_count,
            "instr_count": core.instr_count,
            "irq": core.irq.read(),
            "halted_signal": core.halted_signal.read(),
            "pc_signal": core.pc_signal.read(),
        })

    timers = []
    for timer in soc.timers:
        timers.append({
            "enabled": timer.enabled,
            "auto_reload": timer.auto_reload,
            "period": timer.period,
            "expired": timer.expired,
            "expirations": timer.expirations,
            "deadline": timer._deadline,
            "irq": timer.irq.read(),
        })

    dma = soc.dma
    sem = soc.semaphores
    mbox = soc.mailboxes
    data: Dict[str, Any] = {
        "version": SNAP_VERSION,
        "note": note,
        "time": sim.now,
        "event_count": sim.event_count,
        "signature": _signature(soc, injector),
        "programs": None,
        "cores": cores,
        "ram": list(soc.ram.words),
        "sem": {"values": list(sem.values),
                "acquire_attempts": list(sem.acquire_attempts),
                "acquire_successes": list(sem.acquire_successes),
                "releases": list(sem.releases)},
        "timers": timers,
        "dma": {"src": dma.src, "dst": dma.dst, "length": dma.length,
                "busy": dma.busy, "done": dma.done,
                "transfers_completed": dma.transfers_completed,
                "words_moved": dma.words_moved,
                "xfer_src": dma._xfer_src, "xfer_dst": dma._xfer_dst,
                "xfer_len": dma._xfer_len,
                "xfer_index": dma._xfer_index,
                "irq": dma.irq.read()},
        "uart": list(soc.uart.words),
        "mbox": {"queues": [[list(pair) for pair in queue_]
                            for queue_ in mbox.queues],
                 "doorbells": [d.read() for d in mbox.doorbells],
                 "tx_dst": list(mbox.tx_dst),
                 "last_src": list(mbox.last_src),
                 "dropped": mbox.dropped},
        "intc": [{"pending": intc.pending, "mask": intc.mask}
                 for intc in soc.intcs],
        "bus": {"reads": soc.bus.reads, "writes": soc.bus.writes},
        "queue": queue,
        "faults": injector.snap_state() if injector is not None else None,
    }
    if embed_programs:
        sources = {}
        for core in soc.cores:
            if not core.program.source:
                sources = None
                break
            sources[str(core.core_id)] = core.program.source
        data["programs"] = sources
    return data


def checkpoint(soc: Any, injector: Any = None, note: str = "",
               embed_programs: bool = True) -> "Snapshot":
    """Park the platform and capture an exact, restorable snapshot.

    Advances the simulation to the earliest parkable boundary (a few
    events at most; zero while a debugger is attached) -- executing
    exactly what the uninterrupted run would -- then releases the cores,
    so the capturing run itself continues bit-identically.

    ``injector`` must be passed when a :class:`~repro.faults.FaultInjector`
    drives this platform, so its pending faults, stuck-irq releases and
    RNG streams are captured.  ``embed_programs=True`` stores assembly
    sources (when available) so :meth:`Snapshot.rebuild` can reconstruct
    the platform from the snapshot alone.
    """
    for core in soc.cores:
        if core.stall_hook is not None:
            raise SnapshotError(
                f"{core.name} has a stall hook installed; intrusive "
                "probe state cannot be captured exactly")
    soc.start()
    soc.acquire_sync()
    try:
        _settle(soc)
        data = _capture(soc, injector, note, embed_programs)
    finally:
        soc.release_sync()
    data = json_roundtrip(data)
    data["digest"] = _digest(data)
    return Snapshot(data)


def _digest(data: Dict[str, Any]) -> str:
    body = {key: value for key, value in data.items() if key != "digest"}
    return hashlib.sha256(
        canonical_json(body).encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# restore
# ----------------------------------------------------------------------

def restore(snapshot: "Snapshot", soc: Any,
            injector: Any = None) -> Any:
    """Load ``snapshot`` into ``soc`` (in place); returns ``soc``.

    The target must be *structurally identical* to the captured
    platform: same config, same programs, same fault plan (verified via
    the snapshot's signature) and -- the caller's responsibility -- the
    same interrupt-source wiring.  Works both on a freshly built SoC and
    on the capturing SoC itself (time travel): live processes are closed
    without side effects, the kernel queue is rebuilt from the claims in
    rank order, and signal values are forced without firing events.
    """
    data = snapshot.data
    if data.get("version") != SNAP_VERSION:
        raise SnapshotError(f"unsupported snapshot version "
                            f"{data.get('version')!r}")
    if data["faults"] is not None and injector is None:
        raise SnapshotError("snapshot carries fault-injector state; "
                            "pass the injector to restore()")
    expected = json_roundtrip(_signature(soc, injector))
    if expected != data["signature"]:
        raise SnapshotError(
            "structural mismatch between snapshot and target platform: "
            f"snapshot {data['signature']} != target {expected}")

    sim = soc.sim
    # -- tear down: close live generators without triggering done events
    for proc in sim.processes:
        if proc.alive:
            if proc._waiting_on is not None \
                    and proc._resume_handle is not None:
                proc._waiting_on.remove_waiter(proc._resume_handle)
                proc._waiting_on = None
                proc._resume_handle = None
            proc.alive = False
            proc.body.close()
    sim.processes = []
    sim.clear_queue()
    sim.now = data["time"]
    sim.event_count = data["event_count"]
    soc._started = True

    # -- architectural state
    soc.ram.words[:] = data["ram"]
    for core, state in zip(soc.cores, data["cores"]):
        core.pc = state["pc"]
        core.regs = list(state["regs"])
        core.halted = state["halted"]
        core.interrupts_enabled = state["interrupts_enabled"]
        core.in_isr = state["in_isr"]
        core.epc = state["epc"]
        core.saved_regs = list(state["saved_regs"])
        core.cycle_count = state["cycle_count"]
        core.instr_count = state["instr_count"]
        core._lane_pending = None
        core._wait_state = None
        core.process = None
        core.irq.force(state["irq"])
        core.halted_signal.force(state["halted_signal"])
        core.pc_signal.force(state["pc_signal"])
    for group in soc.lane_groups:
        for lane in group.cores:
            group.unpark(lane)

    sem = soc.semaphores
    sem.values[:] = data["sem"]["values"]
    sem.acquire_attempts[:] = data["sem"]["acquire_attempts"]
    sem.acquire_successes[:] = data["sem"]["acquire_successes"]
    sem.releases[:] = data["sem"]["releases"]

    for timer, state in zip(soc.timers, data["timers"]):
        timer.enabled = state["enabled"]
        timer.auto_reload = state["auto_reload"]
        timer.period = state["period"]
        timer.expired = state["expired"]
        timer.expirations = state["expirations"]
        timer._deadline = state["deadline"]
        timer._armed_item = None
        timer.irq.force(state["irq"])

    dma = soc.dma
    state = data["dma"]
    dma.src = state["src"]
    dma.dst = state["dst"]
    dma.length = state["length"]
    dma.busy = state["busy"]
    dma.done = state["done"]
    dma.transfers_completed = state["transfers_completed"]
    dma.words_moved = state["words_moved"]
    dma._xfer_src = state["xfer_src"]
    dma._xfer_dst = state["xfer_dst"]
    dma._xfer_len = state["xfer_len"]
    dma._xfer_index = state["xfer_index"]
    dma._xfer_proc = None
    dma.irq.force(state["irq"])

    soc.uart.words[:] = data["uart"]

    mbox = soc.mailboxes
    state = data["mbox"]
    for queue_, restored in zip(mbox.queues, state["queues"]):
        queue_.clear()
        queue_.extend(tuple(pair) for pair in restored)
    for doorbell, value in zip(mbox.doorbells, state["doorbells"]):
        doorbell.force(value)
    mbox.tx_dst[:] = state["tx_dst"]
    mbox.last_src[:] = state["last_src"]
    mbox.dropped = state["dropped"]

    for intc, state in zip(soc.intcs, data["intc"]):
        intc.pending = state["pending"]
        intc.mask = state["mask"]

    soc.bus.reads = data["bus"]["reads"]
    soc.bus.writes = data["bus"]["writes"]

    if injector is not None and data["faults"] is not None:
        injector.snap_restore(data["faults"])

    # -- rebuild the kernel queue in global rank order, so relative
    # sequence numbers within every (time, priority) class match the
    # captured run exactly
    for entry in data["queue"]:
        kind = entry["kind"]
        wake = entry["time"]
        if kind == "core":
            core = soc.cores[entry["index"]]
            core._wait_state = "ref"
            core.process = sim.spawn(core._run(resume=True), name=core.name,
                                     priority=core.priority,
                                     start_delay=wake - sim.now)
        elif kind == "timer":
            timer = soc.timers[entry["index"]]
            timer._armed_item = sim.at(wake, timer._expire)
        elif kind == "dma":
            dma._xfer_proc = sim.spawn(dma._transfer(resume=True),
                                       name=f"{dma.name}.xfer",
                                       start_delay=wake - sim.now)
        elif kind == "fault":
            injector.snap_arm_fault(entry["index"])
        elif kind == "stuck_release":
            injector.snap_arm_stuck(entry["index"])
        else:
            raise SnapshotError(f"unknown claim kind {kind!r}")
    return soc


# ----------------------------------------------------------------------
# the snapshot object
# ----------------------------------------------------------------------

class Snapshot:
    """One captured platform image (JSON-pure payload + content digest).

    Follows the :class:`~repro.faults.plan.FaultPlan` idiom: exact
    ``to_dict()``/``from_dict()`` round-trips, so snapshots embed
    directly in farm job configs and result caches.
    """

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    # -- identity ------------------------------------------------------
    @property
    def version(self) -> str:
        return self.data["version"]

    @property
    def time(self) -> float:
        return self.data["time"]

    @property
    def note(self) -> str:
        return self.data.get("note", "")

    @property
    def digest(self) -> str:
        return self.data["digest"]

    def size_bytes(self) -> int:
        return len(canonical_json(self.data).encode("utf-8"))

    # -- serialization -------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        return json_roundtrip(self.data)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any],
                  verify: bool = True) -> "Snapshot":
        data = json_roundtrip(payload)
        if data.get("version") != SNAP_VERSION:
            raise SnapshotError(f"unsupported snapshot version "
                                f"{data.get('version')!r}")
        if verify:
            recomputed = _digest(data)
            if data.get("digest") != recomputed:
                raise SnapshotError(
                    f"snapshot digest mismatch: recorded "
                    f"{data.get('digest')!r}, recomputed {recomputed!r}")
        return cls(data)

    # -- restore -------------------------------------------------------
    def restore(self, soc: Any, injector: Any = None) -> Any:
        return restore(self, soc, injector=injector)

    def rebuild(self) -> Any:
        """Build a fresh :class:`~repro.vp.soc.SoC` from the embedded
        program sources and restore this snapshot into it.

        Snapshots carrying fault-injector state or extra interrupt
        wiring cannot be rebuilt blindly -- build the SoC (and injector)
        manually and call :meth:`restore`.
        """
        from repro.vp.soc import SoC, SoCConfig
        if not self.data.get("programs"):
            raise SnapshotError(
                "snapshot has no embedded program sources; rebuild() "
                "needs checkpoint(embed_programs=True) and assembly-"
                "source programs")
        if self.data["faults"] is not None:
            raise SnapshotError(
                "snapshot carries fault-injector state; rebuild() "
                "cannot reconstruct the injector -- build the platform "
                "and injector manually, then call restore()")
        config = SoCConfig(**self.data["signature"]["config"])
        programs = {int(core_id): source
                    for core_id, source in self.data["programs"].items()}
        return restore(self, SoC(config, programs))

    def __repr__(self) -> str:
        return (f"Snapshot(t={self.time}, {len(self.data['cores'])} "
                f"cores, digest={self.digest[:12]}...)")


__all__ = ["SNAP_VERSION", "Snapshot", "SnapshotError", "checkpoint",
           "restore"]

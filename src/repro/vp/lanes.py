"""Lane-vectorized lockstep execution (``SoCConfig.backend = "vector"``).

The paper's central workload is the fully distributed *homogeneous*
many-core grid: N identical cores running the same program.  The
superblock-compiled backend (:mod:`repro.vp.jit`) already retires whole
blocks per generated-function call, but still pays that work once per
core.  This module exploits the configuration's homogeneity the way
ANDROMEDA scales MPSoC exploration and taichi's ``VectorSplitter``
vectorizes lanes: cores running the same :class:`~repro.vp.isa.
AsmProgram` form a :class:`LaneGroup`, and whenever several lanes are
*convergent* -- parked at the same pc, with no divergence point pending
-- the first lane to wake retires the next superblock batch for every
one of them in a single step.

Two tiers inside a vector step:

- **Identical lanes share one execution.**  Lanes whose register files
  compare equal are architecturally indistinguishable, so the batch is
  executed once and the resulting register image copied to each twin
  (a C-speed list copy).  On a truly homogeneous sweep every lane stays
  bit-identical for the whole run and the group does ~1/N of the
  compiled backend's work.
- **Convergent-but-divergent-valued lanes run the lane-compiled
  blocks.**  :func:`repro.vp.jit.compile_lane_superblock` wraps the
  scalar generated body in a per-lane loop, so one call retires the
  block for all distinct lanes; a lane whose branch outcome or loop
  trip count differs simply comes back with its own exit pc/charge and
  is finalized there (*split on divergence*).

Lanes split off to the scalar path -- and transparently rejoin at the
next common leader pc -- at every sync boundary (the rule is defined
once, in :mod:`repro.vp.iss` and :meth:`~repro.vp.iss.Cpu._must_sync`),
at a mismatched decode, or simply at a different pc.  Kernel-facing
semantics are untouched: every core still yields its *own* delays at
exactly the reference-path cycles, and tied-time bus arbitration is
still pinned by per-core kernel priority (``core_id + 1``).

Speculation discipline
----------------------
A leader computes a follower's batch *early*, from the follower's
parked (committed) state, mutating the follower's register file in
place.  The follower validates the speculation when it wakes: if a sync
boundary appeared in between, it restores the pre-batch register backup
carried by the pending result and re-executes on the event-exact path.
A lane is marked parked only while it is suspended at a vector batch
boundary with its architectural state fully committed; every other
path through the core loop clears the flag, so a leader can never read
(or write) a lane that is mid-instruction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.vp.jit import BlockFault


class LaneResult:
    """One lane's share of a vector step: the batch the lane must retire
    when it wakes.  ``backup`` is the lane's pre-batch register image
    (``None`` for the leader, which consumes synchronously); ``fault``
    carries the detail text of a fault surfacing at the batch end."""

    __slots__ = ("pc", "total", "count", "cost", "fault", "backup",
                 "decoded")

    def __init__(self, pc: int, total: int, count: int, cost: int,
                 fault: Optional[str] = None, backup=None, decoded=None):
        self.pc = pc
        self.total = total
        self.count = count
        self.cost = cost
        self.fault = fault
        self.backup = backup
        self.decoded = decoded


def run_superblock_chain(decoded, regs: List[int], pc: int,
                         quantum: int) -> Tuple[int, int, int, int,
                                                Optional[str]]:
    """Retire one quantum-bounded batch of scalar superblocks starting
    at ``pc`` -- the one chain loop behind the compiled backend
    (:meth:`repro.vp.iss.Cpu._run`), solo lanes and the
    twins-share-one-execution tier.

    Returns ``(pc, total, count, cost, fault)``, the leading fields of a
    :class:`LaneResult` (a plain tuple: the compiled backend calls this
    once per batch).  A fault ends the batch with the exact
    reference-path charge and its detail text in ``fault``."""
    sblocks = decoded.superblocks()
    get_block = sblocks.get
    batchable = decoded.batchable
    n = decoded.n
    total = 0
    count = 0
    while True:
        block = get_block(pc)
        try:
            if block.dynamic:
                pc, bcycles, bcount = block.fn(regs, quantum - total)
                total += bcycles
                count += bcount
            else:
                pc = block.fn(regs)
                total += block.cycles
                count += block.count
        except BlockFault as error:
            return (error.pc, total + error.cycles, count + error.count,
                    error.cost, error.detail)
        cost = block.last_cost
        if total >= quantum or not 0 <= pc < n or not batchable[pc]:
            return pc, total, count, cost, None


def run_lane_chain(decoded, lanes: List[List[int]], pc: int,
                   quantum: int) -> List[LaneResult]:
    """Retire one batch of *lane-compiled* superblocks for several
    distinct lanes at once.

    Blocks are chained while every lane agrees on the exit pc (and, for
    dynamic loop blocks, the charge); the first disagreement finalizes
    each lane at its own exit -- the split point.  Raises
    :class:`BlockFault` if any lane faults mid-call; the caller restores
    every lane's backup and falls back to the scalar path, which
    re-raises with the exact per-lane charge.
    """
    cache = decoded.lane_superblocks()
    batchable = decoded.batchable
    n = decoded.n
    total = 0
    count = 0
    while True:
        block = cache.get(pc)
        cost = block.last_cost
        if block.dynamic:
            out = block.fn(lanes, quantum - total)
            first = out[0]
            if any(o != first for o in out):
                return [LaneResult(o[0], total + o[1], count + o[2], cost)
                        for o in out]
            pc = first[0]
            total += first[1]
            count += first[2]
        else:
            out = block.fn(lanes)
            total += block.cycles
            count += block.count
            first = out[0]
            if any(o != first for o in out):
                return [LaneResult(o, total, count, cost) for o in out]
            pc = first
        if total >= quantum or not 0 <= pc < n or not batchable[pc]:
            return [LaneResult(pc, total, count, cost)
                    for _ in lanes]


class LaneGroup:
    """Lockstep coordinator for homogeneous cores sharing one program.

    Built by :class:`~repro.vp.soc.SoC` when ``backend="vector"`` groups
    two or more cores on the same :class:`AsmProgram`.  Stateless with
    respect to timing: it only ever computes batches, never schedules --
    each member core yields its own delays.
    """

    __slots__ = ("cores", "quantum", "_parked", "windows", "lanes_retired",
                 "shared", "vector_calls", "solo_steps", "fallbacks")

    def __init__(self, cores, quantum: int) -> None:
        self.cores = list(cores)
        self.quantum = quantum
        self._parked = [False] * len(self.cores)
        for lane_id, cpu in enumerate(self.cores):
            cpu._lane_group = self
            cpu._lane_id = lane_id
        # Observability counters (exposed through tests and debugging):
        self.windows = 0        # vector steps led
        self.lanes_retired = 0  # lane-batches retired through the group
        self.shared = 0         # lane-batches satisfied by a state copy
        self.vector_calls = 0   # lane-compiled chain invocations
        self.solo_steps = 0     # steps with no convergent partner
        self.fallbacks = 0      # vector faults re-run on the scalar path

    # ------------------------------------------------------------------
    def park(self, cpu) -> None:
        """Mark ``cpu`` suspended at a vector batch boundary with its
        committed state readable by a leader."""
        self._parked[cpu._lane_id] = True

    def unpark(self, cpu) -> None:
        self._parked[cpu._lane_id] = False

    # ------------------------------------------------------------------
    def step(self, cpu, decoded) -> LaneResult:
        """Retire the next batch for ``cpu`` -- and, in the same call,
        for every convergent parked lane, each of which receives a
        pending :class:`LaneResult` to consume at its own wake-up.

        The caller (the core loop) has already checked
        ``decoded.batchable[cpu.pc]`` and the leader's sync boundaries.
        """
        parked = self._parked
        parked[cpu._lane_id] = False
        pc = cpu.pc
        quantum = cpu.quantum
        # Convergent lanes: parked at the same pc on the same decode,
        # running, and not pinned by a sync boundary.
        members = [cpu]
        for other in self.cores:
            if (other is not cpu and parked[other._lane_id]
                    and other.pc == pc and other._decoded is decoded
                    and not other.halted and not other._must_sync()):
                members.append(other)

        if len(members) == 1:
            self.solo_steps += 1
            return LaneResult(*run_superblock_chain(decoded, cpu.regs, pc,
                                                    quantum))

        self.windows += 1
        self.lanes_retired += len(members)
        # Group twins: lanes with equal register files are architecturally
        # indistinguishable and share one execution.
        reps: List[List] = []   # [representative, twin, twin, ...]
        for member in members:
            for group in reps:
                if member.regs == group[0].regs:
                    group.append(member)
                    break
            else:
                reps.append([member])

        backups = {id(m): list(m.regs) for m in members}
        if len(reps) == 1:
            results = [LaneResult(*run_superblock_chain(decoded, cpu.regs,
                                                        pc, quantum))]
        else:
            try:
                self.vector_calls += 1
                results = run_lane_chain(
                    decoded, [group[0].regs for group in reps], pc, quantum)
            except BlockFault:
                # A lane faulted mid-vector-call: restore every member and
                # let each lane retire this window on the scalar path at
                # its own wake-up (the leader right now, the parked
                # followers when they consume nothing and re-lead).  The
                # scalar chain reproduces the exact reference-cycle fault.
                self.fallbacks += 1
                for member in members:
                    member.regs[:] = backups[id(member)]
                return LaneResult(*run_superblock_chain(decoded, cpu.regs,
                                                        pc, quantum))

        leader_result = None
        for group, result in zip(reps, results):
            rep = group[0]
            for member in group:
                if member is not rep:
                    member.regs[:] = rep.regs
                    self.shared += 1
                if member is cpu:
                    leader_result = result
                else:
                    parked[member._lane_id] = False
                    member._lane_pending = LaneResult(
                        result.pc, result.total, result.count, result.cost,
                        result.fault, backups[id(member)], decoded)
        return leader_result


__all__ = ["LaneGroup", "LaneResult", "run_lane_chain",
           "run_superblock_chain"]

"""The synthesized CIC run-time system (section V).

"The CIC translation involves synthesizing the interface code between
tasks and a run-time system that schedules the mapped tasks."

The runtime executes a CIC application on the discrete-event kernel,
with the MVP's mapped-task executor (:func:`repro.maps.mvp.run_task`):

- each channel becomes a bounded FIFO (back-pressure);
- each task becomes a process that, per firing, prefetches one token per
  in-port, interprets ``task_go`` (its cost in interpreter operations is
  scaled by the host processor's frequency), then pushes out-tokens paying
  the *target-specific* transfer cost, computed once per channel;
- timer-driven tasks (``period`` annotation) are released periodically --
  "based on the period and deadline information of tasks, the run-time
  system is synthesized";
- a task's interpreter persists across firings, so task state (globals in
  its mini-C source) behaves like static C state.

The target object supplies only costs and constraint checks -- the same
runtime executes every target, which is precisely the CIC retargetability
argument.
"""

from __future__ import annotations

import copy
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Protocol

from repro.desim import Delay, Fifo, Resource, Simulator
from repro.cir.interp import Interpreter
from repro.maps.mvp import Ledger, run_task
from repro.hopes.archfile import ArchInfo, ProcessorInfo
from repro.hopes.cic import CICApplication, CICChannel, CICTask


class Target(Protocol):
    """What a CIC backend must provide."""

    name: str

    def transfer_cost(self, channel: CICChannel, src: ProcessorInfo,
                      dst: ProcessorInfo) -> float: ...

    def invocation_overhead(self, proc: ProcessorInfo) -> float: ...

    def validate(self, app: CICApplication, arch: ArchInfo,
                 mapping: Dict[str, str]) -> List[str]: ...

    def glue_code(self, app: CICApplication, arch: ArchInfo,
                  mapping: Dict[str, str]) -> Dict[str, str]: ...


@dataclass
class TaskStats:
    """Per-task execution statistics."""

    firings: int = 0
    ops: int = 0
    busy_time: float = 0.0
    deadline_misses: int = 0


@dataclass
class ExecutionReport:
    """Result of running a CIC application on a target."""

    target: str
    end_time: float = 0.0
    sink_outputs: Dict[str, List[Any]] = field(default_factory=dict)
    task_stats: Dict[str, TaskStats] = field(default_factory=dict)
    channel_occupancy: Dict[str, int] = field(default_factory=dict)
    transfer_cycles: float = 0.0
    proc_busy: Dict[str, float] = field(default_factory=dict)
    requested_iterations: int = 0
    # Tasks that did not reach the requested firing count when the run
    # stopped, whether the system went idle or the horizon cut it.
    starved_tasks: List[str] = field(default_factory=list)
    # The horizon stopped the run with events still queued.
    horizon_cut: bool = False

    @property
    def deadlocked(self) -> bool:
        """Tasks starved although the system went idle (e.g. a tokenless
        feedback cycle or an undersized channel loop)."""
        return bool(self.starved_tasks) and not self.horizon_cut

    def output_of(self, task: str) -> List[Any]:
        return self.sink_outputs.get(task, [])

    def to_dict(self) -> Dict[str, Any]:
        """Plain-JSON form (inverse of :meth:`from_dict`), so reports
        travel through farm job results and result caches."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "ExecutionReport":
        fields = copy.deepcopy(data)
        fields["task_stats"] = {name: TaskStats(**stats) for name, stats
                                in fields.get("task_stats", {}).items()}
        return cls(**fields)


# Abstract interpreter ops per simulated cycle on a 1.0x processor.
OPS_PER_CYCLE = 1.0


class RuntimeSystem:
    """Executable instance of one CIC application on one target."""

    def __init__(self, app: CICApplication, arch: ArchInfo,
                 mapping: Dict[str, str], target: Target) -> None:
        app.validate()
        missing = set(app.tasks) - set(mapping)
        if missing:
            raise ValueError(f"unmapped tasks: {sorted(missing)}")
        for task, proc in mapping.items():
            arch.processor(proc)  # raises on unknown processor
        violations = target.validate(app, arch, mapping)
        if violations:
            raise ValueError(f"target constraints violated: {violations}")
        self.app = app
        self.arch = arch
        self.mapping = dict(mapping)
        self.target = target

    def run(self, iterations: int,
            horizon: float = float("inf")) -> ExecutionReport:
        """Fire every task ``iterations`` times (single-rate CIC graphs)."""
        sim = Simulator()
        report = ExecutionReport(self.target.name)
        fifos: Dict[str, Fifo] = {}
        for channel in self.app.channels:
            fifo = Fifo(capacity=channel.capacity, name=channel.name)
            for token in channel.initial_tokens:
                fifo.put_nowait(token)
            fifos[channel.name] = fifo

        # One execution unit per processor: tasks mapped to the same
        # processor serialize (the synthesized runtime schedules them).
        processors = {proc.name: Resource(1, name=proc.name)
                      for proc in self.arch.processors}
        ledger = Ledger(report.proc_busy)
        for task_name, task in self.app.tasks.items():
            report.task_stats[task_name] = TaskStats()
            report.sink_outputs[task_name] = []
            sim.spawn(self._task_process(sim, task, fifos, report,
                                         iterations,
                                         processors[self.mapping[task.name]],
                                         ledger),
                      name=task_name)
        sim.run(until=horizon if horizon != float("inf") else None)
        report.end_time = sim.now
        report.horizon_cut = sim.peek_time() is not None
        report.transfer_cycles = ledger.comm
        report.requested_iterations = iterations
        report.channel_occupancy = {name: fifo.max_occupancy
                                    for name, fifo in fifos.items()}
        report.starved_tasks = sorted(
            name for name, stats in report.task_stats.items()
            if stats.firings < iterations)
        return report

    # ------------------------------------------------------------------
    def _task_process(self, sim: Simulator, task: CICTask,
                      fifos: Dict[str, Fifo], report: ExecutionReport,
                      iterations: int, processor: Resource, ledger: Ledger):
        proc = self.arch.processor(self.mapping[task.name])
        stats = report.task_stats[task.name]
        in_channels = self.app.in_channels(task.name)
        in_index = [task.in_ports.index(c.dst_port) for c in in_channels]
        # Per out-port: (fifo, transfer delay, or None for no delay).
        routes: List[List[Any]] = [[] for _ in task.out_ports]
        for channel in self.app.out_channels(task.name):
            transfer = self.target.transfer_cost(
                channel, proc,
                self.arch.processor(self.mapping[channel.dst_task]))
            routes[task.out_ports.index(channel.src_port)].append(
                (fifos[channel.name],
                 Delay(transfer) if transfer > 0 else None))

        tokens: Dict[int, Any] = {}
        outbox: List[Any] = []
        ops = 0  # the current firing's interpreter operations

        def read_port(index: int) -> Any:
            if index not in tokens:
                raise RuntimeError(
                    f"{task.name}: read_port({index}) but port has no "
                    f"prefetched token (port not connected?)")
            return tokens[index]

        def write_port(index: int, value: Any) -> int:
            if not 0 <= index < len(routes):
                raise RuntimeError(
                    f"{task.name}: write_port({index}) but the task has "
                    f"{len(routes)} out-ports")
            outbox.append((index, value))
            return 0

        def emit(value: Any) -> int:
            report.sink_outputs[task.name].append(value)
            return 0

        interp = Interpreter(task.program, externals={
            "read_port": read_port, "write_port": write_port, "emit": emit})

        def fire(_firing: int, values: List[Any]):
            nonlocal tokens, ops
            tokens = dict(zip(in_index, values))
            outbox.clear()
            ops_before = interp.op_count
            interp.call("task_go", [])
            ops = interp.op_count - ops_before
            cost = ops / (OPS_PER_CYCLE * proc.freq) + \
                self.target.invocation_overhead(proc)
            return Delay(cost), [
                (fifo, delay, value) for index, value in outbox
                for fifo, delay in routes[index]]

        def fired(cost: float) -> None:
            stats.busy_time += cost
            stats.ops += ops
            stats.firings += 1

        def missed(_firing: int, released: float, _started: float) -> None:
            if sim.now - released > task.deadline + 1e-9:
                stats.deadline_misses += 1

        if task.program.has_function("task_init"):
            ops_before = interp.op_count
            interp.call("task_init", [])
            cost = (interp.op_count - ops_before) / (OPS_PER_CYCLE * proc.freq)
            if cost > 0:
                yield from processor.acquire()
                yield Delay(cost)
                processor.release()
                stats.busy_time += cost
        yield from run_task(
            sim, iterations, [fifos[c.name] for c in in_channels], processor,
            0, fire, ledger, (0.0, task.period), fired,
            None if task.deadline is None else missed)


__all__ = ["ExecutionReport", "OPS_PER_CYCLE", "RuntimeSystem", "Target",
           "TaskStats"]

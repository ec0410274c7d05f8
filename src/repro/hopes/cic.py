"""The Common Intermediate Code model (section V).

"In a CIC, the potential functional and data parallelism of application
tasks are specified independently of the target architecture and design
constraints.  CIC tasks are concurrent tasks communicating with each other
through channels."

A :class:`CICTask` carries target-independent mini-C code with two entry
functions:

- ``task_init()`` -- run once before execution starts;
- ``task_go()`` -- run per invocation; it may call the CIC runtime
  primitives ``read_port(p)`` (returns this firing's token on in-port
  index ``p``) and ``write_port(p, v)`` (emits one token on out-port
  index ``p``).

Firing rule: a task fires when every in-port has a token (dataflow
semantics); ``read_port`` never blocks inside ``task_go`` because the
synthesized runtime prefetches one token per port per firing.  Tasks may
also carry period/deadline annotations, from which "the run-time system is
synthesized" (section V).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.cir.nodes import Program
from repro.cir.parser import parse


@dataclass
class CICTask:
    """One target-independent task."""

    name: str
    source: str                       # mini-C with task_init/task_go
    in_ports: List[str] = field(default_factory=list)
    out_ports: List[str] = field(default_factory=list)
    period: Optional[float] = None    # timer-driven source tasks
    deadline: Optional[float] = None
    priority: int = 10
    data_words: int = 64              # state footprint (local-store check)
    _program: Optional[Program] = None

    @property
    def program(self) -> Program:
        if self._program is None:
            self._program = parse(self.source)
        return self._program

    def validate(self) -> None:
        program = self.program
        if not program.has_function("task_go"):
            raise ValueError(f"task {self.name!r}: missing task_go()")
        names = set(self.in_ports) | set(self.out_ports)
        if len(names) != len(self.in_ports) + len(self.out_ports):
            raise ValueError(f"task {self.name!r}: duplicate port names")


@dataclass
class CICChannel:
    """A typed FIFO channel between two task ports."""

    name: str
    src_task: str
    src_port: str
    dst_task: str
    dst_port: str
    capacity: int = 4
    token_words: int = 1
    initial_tokens: List[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"channel {self.name!r}: capacity must be >= 1")
        if len(self.initial_tokens) > self.capacity:
            raise ValueError(f"channel {self.name!r}: initial tokens exceed "
                             f"capacity")


@dataclass
class CICApplication:
    """A complete CIC application: tasks + channels.

    "Based on the task-dependency information that tells how to connect
    the tasks, the translator determines the number of inter-task
    communication channels."
    """

    name: str
    tasks: Dict[str, CICTask] = field(default_factory=dict)
    channels: List[CICChannel] = field(default_factory=list)

    def add_task(self, task: CICTask) -> CICTask:
        if task.name in self.tasks:
            raise ValueError(f"duplicate task {task.name!r}")
        task.validate()
        self.tasks[task.name] = task
        return task

    def connect(self, src: str, src_port: str, dst: str, dst_port: str,
                capacity: int = 4, token_words: int = 1,
                initial_tokens: Optional[List[int]] = None,
                name: str = "") -> CICChannel:
        if src not in self.tasks or dst not in self.tasks:
            raise KeyError("both endpoints must be added tasks")
        if src_port not in self.tasks[src].out_ports:
            raise KeyError(f"{src!r} has no out-port {src_port!r}")
        if dst_port not in self.tasks[dst].in_ports:
            raise KeyError(f"{dst!r} has no in-port {dst_port!r}")
        channel = CICChannel(name or f"{src}.{src_port}->{dst}.{dst_port}",
                             src, src_port, dst, dst_port, capacity,
                             token_words, initial_tokens or [])
        self.channels.append(channel)
        return channel

    def validate(self) -> None:
        """Every in-port must be driven by exactly one channel; out-ports
        may fan out only via distinct channels."""
        for task in self.tasks.values():
            task.validate()
            for port in task.in_ports:
                drivers = [c for c in self.channels
                           if c.dst_task == task.name and c.dst_port == port]
                if len(drivers) != 1:
                    raise ValueError(
                        f"in-port {task.name}.{port} has {len(drivers)} "
                        f"drivers (needs exactly 1)")

    def in_channels(self, task: str) -> List[CICChannel]:
        return [c for c in self.channels if c.dst_task == task]

    def out_channels(self, task: str) -> List[CICChannel]:
        return [c for c in self.channels if c.src_task == task]

    def source_tasks(self) -> List[str]:
        return [name for name in self.tasks if not self.in_channels(name)]

    def sink_tasks(self) -> List[str]:
        return [name for name in self.tasks if not self.out_channels(name)]


__all__ = ["CICApplication", "CICChannel", "CICTask"]

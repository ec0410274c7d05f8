"""SoC builder: wires cores, RAM and peripherals into one platform.

Memory map (word addresses)::

    0x0000 .. RAM (shared)
    0x8000    semaphore bank (16 semaphores)
    0x8100    timer0   (4 regs)   0x8110 timer1 ...
    0x8200    DMA      (5 regs)
    0x8300    UART     (2 regs)
    0x8400    INTC for core0 (3 regs), 0x8410 core1 ...
    0x8500    mailbox port for core0 (5 regs), 0x8510 core1 ...

Symbolic constants for firmware: :data:`SEM_BASE`, :data:`TIMER_BASE`,
:data:`DMA_BASE`, :data:`UART_BASE`, :data:`INTC_BASE`, :data:`MBOX_BASE`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Union

from repro.desim import Signal, Simulator
from repro.vp.bus import Bus, Ram
from repro.vp.isa import AsmProgram, assemble
from repro.vp.iss import BACKENDS, Cpu, DEFAULT_BACKEND, DEFAULT_QUANTUM
from repro.vp.lanes import LaneGroup
from repro.vp.peripherals.dma import DmaDevice
from repro.vp.peripherals.intc import InterruptController
from repro.vp.peripherals.mailbox import MailboxBank, MailboxPort
from repro.vp.peripherals.semaphore import SemaphoreBank
from repro.vp.peripherals.timer import TimerDevice
from repro.vp.peripherals.uart import Uart

SEM_BASE = 0x8000
TIMER_BASE = 0x8100
TIMER_STRIDE = 0x10
DMA_BASE = 0x8200
UART_BASE = 0x8300
INTC_BASE = 0x8400
INTC_STRIDE = 0x10
MBOX_BASE = 0x8500
MBOX_STRIDE = 0x10

IRQ_VECTOR = 1000  # default irq handler address inside each core's program


@functools.lru_cache(maxsize=32)
def _program_of(source: str) -> AsmProgram:
    """Firmware assembled once per process.  Programs are immutable, so
    the program of a source string -- and the decode and superblock
    caches that hang off it -- is shared by every core and every SoC
    built from that source.  Bounded (least recently used sources are
    dropped); a source that fails to assemble is not kept, so it raises
    every time.  A miss calls this module's ``assemble``, looked up at
    call time, so a wrapper installed on ``repro.vp.soc.assemble`` sees
    every real assembly."""
    return assemble(source)


@dataclass
class SoCConfig:
    """Build parameters for a :class:`SoC`."""

    n_cores: int = 2
    ram_words: int = 4096
    n_timers: int = 2
    n_semaphores: int = 16
    irq_vector: Optional[int] = None  # per-core ISR entry (instruction index)
    # Temporal-decoupling quantum for every core: max simulated cycles a
    # core may batch into one kernel wakeup on the ISS batching tiers.
    # 1 forces the historical per-instruction execution; so does every
    # sync boundary, whatever this value (repro.vp.iss docstring).
    quantum: int = DEFAULT_QUANTUM
    # Execution backend tier for every core: "reference" pins the
    # event-exact per-instruction path (the oracle), "compiled" (the
    # default) retires whole superblocks per generated-Python call
    # (repro.vp.jit), "vector" steps homogeneous cores in lockstep --
    # one superblock batch per step for every convergent lane
    # (repro.vp.lanes).  All tiers are bit-identical and share one
    # sync-boundary rule; the batching tiers round the quantum up to
    # superblock granularity.
    backend: str = DEFAULT_BACKEND

    def __post_init__(self) -> None:
        # Adversarial-config guard: the architecture generator emits
        # SoCConfigs, so nonsense values must fail here, loudly, not
        # surface later as a mis-wired platform.
        if not isinstance(self.n_cores, int) or self.n_cores < 1:
            raise ValueError(f"n_cores must be a positive int, "
                             f"got {self.n_cores!r}")
        if not isinstance(self.ram_words, int) or self.ram_words < 1:
            raise ValueError(f"ram_words must be a positive int, "
                             f"got {self.ram_words!r}")
        if not isinstance(self.n_timers, int) or self.n_timers < 0:
            raise ValueError(f"n_timers must be a non-negative int, "
                             f"got {self.n_timers!r}")
        if not isinstance(self.n_semaphores, int) or self.n_semaphores < 0:
            raise ValueError(f"n_semaphores must be a non-negative int, "
                             f"got {self.n_semaphores!r}")
        if self.irq_vector is not None and (
                not isinstance(self.irq_vector, int) or self.irq_vector < 0):
            raise ValueError(f"irq_vector must be None or a non-negative "
                             f"int, got {self.irq_vector!r}")
        if not isinstance(self.quantum, int) or self.quantum < 1:
            raise ValueError(f"quantum must be a positive int, "
                             f"got {self.quantum!r}")
        if self.backend not in BACKENDS:
            raise ValueError(f"backend must be one of {sorted(BACKENDS)}, "
                             f"got {self.backend!r}")


class SoC:
    """A complete simulated platform.

    ``programs`` maps core index to assembly source or a pre-assembled
    :class:`AsmProgram`; all cores share the RAM and peripherals.
    """

    def __init__(self, config: SoCConfig,
                 programs: Dict[int, Union[str, AsmProgram]],
                 sim: Optional[Simulator] = None) -> None:
        self.config = config
        self.sim = sim or Simulator()
        self.bus = Bus("soc.bus")
        self.ram = Ram(config.ram_words)
        self.bus.attach(0, config.ram_words, self.ram, "ram")

        self.semaphores = SemaphoreBank(config.n_semaphores)
        self.bus.attach(SEM_BASE, config.n_semaphores, self.semaphores, "sem")

        self.timers: List[TimerDevice] = []
        for index in range(config.n_timers):
            timer = TimerDevice(self.sim, f"timer{index}")
            self.timers.append(timer)
            self.bus.attach(TIMER_BASE + index * TIMER_STRIDE,
                            TimerDevice.REG_COUNT, timer, timer.name)

        self.dma = DmaDevice(self.sim, self.bus)
        self.bus.attach(DMA_BASE, DmaDevice.REG_COUNT, self.dma, "dma")

        self.uart = Uart()
        self.bus.attach(UART_BASE, Uart.REG_COUNT, self.uart, "uart")

        self.mailboxes = MailboxBank(config.n_cores)
        for core_id in range(config.n_cores):
            self.bus.attach(MBOX_BASE + core_id * MBOX_STRIDE,
                            MailboxPort.REG_COUNT,
                            MailboxPort(self.mailboxes, core_id),
                            f"mbox{core_id}")

        self.cores: List[Cpu] = []
        self.intcs: List[InterruptController] = []
        for core_id in range(config.n_cores):
            source = programs.get(core_id)
            if source is None:
                source = "halt\n"
            program = (source if isinstance(source, AsmProgram)
                       else _program_of(source))
            cpu = Cpu(self.sim, self.bus, program, core_id=core_id,
                      irq_vector=config.irq_vector,
                      quantum=config.quantum,
                      backend=config.backend)
            self.cores.append(cpu)
            intc = InterruptController(self.sim, cpu.irq, f"intc{core_id}")
            self.intcs.append(intc)
            self.bus.attach(INTC_BASE + core_id * INTC_STRIDE,
                            InterruptController.REG_COUNT, intc, intc.name)
            # Load the program's data section into RAM.
            self.ram.load(0, program.data)

        # Lane groups: cores sharing one program execute in lockstep
        # when the vector backend is selected (repro.vp.lanes).
        self.lane_groups: List[LaneGroup] = []
        if config.backend == "vector":
            by_program: Dict[int, List[Cpu]] = {}
            for cpu in self.cores:
                by_program.setdefault(id(cpu.program), []).append(cpu)
            for lanes in by_program.values():
                if len(lanes) >= 2:
                    self.lane_groups.append(LaneGroup(lanes))

        self._started = False

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._started:
            return
        self._started = True
        for cpu in self.cores:
            cpu.start()

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> float:
        """Run the platform (starting the cores on first call)."""
        self.start()
        return self.sim.run(until=until, max_events=max_events)

    def step(self) -> bool:
        """Advance by exactly one kernel event (whole-system synchronous
        granularity -- the debugger's suspension point)."""
        self.start()
        return self.sim.step()

    @property
    def all_halted(self) -> bool:
        return all(core.halted for core in self.cores)

    # ------------------------------------------------------------------
    def checkpoint(self, injector=None, note: str = "",
                   embed_programs: bool = True):
        """Capture an exact, restorable snapshot (see :mod:`repro.snap`).

        Parks every core at a reference-path boundary first; pass the
        platform's :class:`~repro.faults.FaultInjector` (if any) so its
        pending faults and RNG streams are captured too.
        """
        from repro.snap import checkpoint
        return checkpoint(self, injector=injector, note=note,
                          embed_programs=embed_programs)

    def restore(self, snapshot, injector=None) -> "SoC":
        """Load a :class:`repro.snap.Snapshot` (or its dict form) into
        this platform, in place; returns ``self``."""
        from repro.snap import Snapshot, restore
        if isinstance(snapshot, dict):
            snapshot = Snapshot.from_dict(snapshot)
        return restore(snapshot, self, injector=injector)

    # ------------------------------------------------------------------
    def acquire_sync(self) -> None:
        """Force every core onto the per-instruction reference path (the
        debugger's synchronization contract); pair with release_sync."""
        for cpu in self.cores:
            cpu.acquire_sync()

    def release_sync(self) -> None:
        for cpu in self.cores:
            cpu.release_sync()

    # ------------------------------------------------------------------
    def instrument(self, obs=None, sanitizer=None, faults=None,
                   sink=None, metrics=None) -> "Instrumentation":
        """Attach any combination of instrumentation in one call and
        get back one :class:`Instrumentation` handle bundle.

        - ``obs``: ``True``, a :class:`~repro.obs.TraceSink`, or an
          options dict (``sink``, ``metrics``, ``trace_instructions``,
          ``trace_memory``) -- installs a kernel probe plus a
          :class:`~repro.vp.trace.Tracer` (non-intrusive).
        - ``sanitizer``: ``True`` or an options dict (``sink``,
          ``metrics``) -- attaches the happens-before race sanitizer
          (forces the event-exact per-instruction path until
          ``handle.detach()``).
        - ``faults``: a :class:`~repro.faults.FaultInjector`, a
          :class:`~repro.faults.FaultPlan`, or a plan dict
          (:meth:`FaultPlan.from_dict`) -- registers this platform's
          hardware-fault handlers (RAM/register bit flips, stuck
          interrupt lines).
        - ``sink`` / ``metrics``: shared defaults for every attachment
          that does not name its own.  With ``obs`` requested and no
          sink anywhere, a fresh ``TraceSink`` is created; with no
          metrics anywhere, a fresh ``MetricsRegistry`` is shared.

        An option key *present* in an attachment's dict always wins,
        even when its value is ``None``.
        """
        from repro.obs.metrics import MetricsRegistry
        from repro.obs.trace import TraceSink

        def opts_of(value, allowed, what):
            if value is True:
                return {}
            if not isinstance(value, dict):
                return None
            unknown = set(value) - allowed
            if unknown:
                raise ValueError(f"unknown {what} option(s): "
                                 f"{sorted(unknown)}")
            return dict(value)

        obs_opts = opts_of(obs, {"sink", "metrics", "trace_instructions",
                                 "trace_memory"}, "obs")
        if obs_opts is None and obs is not None and obs is not False:
            if not isinstance(obs, TraceSink):
                raise TypeError(f"obs must be True, a TraceSink or an "
                                f"options dict, got {obs!r}")
            obs_opts = {"sink": obs}
        san_opts = opts_of(sanitizer, {"sink", "metrics"}, "sanitizer")
        if san_opts is None and sanitizer not in (None, False):
            raise TypeError(f"sanitizer must be True or an options "
                            f"dict, got {sanitizer!r}")

        if sink is None and obs_opts is not None \
                and obs_opts.get("sink") is None:
            sink = TraceSink()
        if metrics is None and (obs_opts is not None
                                or san_opts is not None
                                or faults is not None):
            metrics = MetricsRegistry()

        def pick(opts, key, default):
            return opts[key] if key in opts else default

        handle = Instrumentation(soc=self, sink=sink, metrics=metrics)

        if obs_opts is not None:
            from repro.obs.probe import observe
            from repro.vp.trace import Tracer
            obs_sink = pick(obs_opts, "sink", sink)
            obs_metrics = pick(obs_opts, "metrics", metrics)
            handle.probe = observe(self.sim, sink=obs_sink,
                                   metrics=obs_metrics)
            handle.tracer = Tracer(
                self,
                trace_instructions=obs_opts.get("trace_instructions",
                                                False),
                trace_memory=obs_opts.get("trace_memory", True),
                sink=obs_sink)

        if san_opts is not None:
            from repro.sanitize.detector import attach_sanitizer
            handle.detector = attach_sanitizer(
                self, sink=pick(san_opts, "sink", sink),
                metrics=pick(san_opts, "metrics", metrics))

        if faults is not None and faults is not False:
            handle.injector = self._resolve_injector(faults, sink,
                                                     metrics)
            handle.injector.attach_soc(self)

        # Every attachment above is intrusive enough to force the
        # event-exact per-instruction path (kernel observers, sync
        # requests), silently overriding a requested batching backend --
        # including vector -> scalar.  Record the downgrade so campaign
        # drivers comparing throughput numbers can see it happened.
        if (metrics is not None and self.config.quantum > 1
                and self.config.backend != "reference"
                and (obs_opts is not None or san_opts is not None
                     or (faults is not None and faults is not False))):
            metrics.counter("backend.downgrade").inc()

        return handle

    def _resolve_injector(self, faults, sink, metrics):
        from repro.faults.injector import FaultInjector
        from repro.faults.plan import FaultPlan
        if isinstance(faults, FaultInjector):
            return faults
        if isinstance(faults, dict):
            faults = FaultPlan.from_dict(faults)
        if isinstance(faults, FaultPlan):
            return FaultInjector(self.sim, faults, sink=sink,
                                 metrics=metrics)
        raise TypeError(f"faults must be a FaultInjector, FaultPlan or "
                        f"plan dict, got {faults!r}")

    # ------------------------------------------------------------------
    def signals(self) -> Dict[str, Signal]:
        """Every observable signal in the platform, by name."""
        table: Dict[str, Signal] = {}
        for cpu in self.cores:
            table[cpu.irq.name] = cpu.irq
            table[cpu.halted_signal.name] = cpu.halted_signal
            table[cpu.pc_signal.name] = cpu.pc_signal
        for timer in self.timers:
            table[timer.irq.name] = timer.irq
        table[self.dma.irq.name] = self.dma.irq
        for doorbell in self.mailboxes.doorbells:
            table[doorbell.name] = doorbell
        return table

    def signal(self, name: str) -> Signal:
        table = self.signals()
        if name not in table:
            raise KeyError(f"no signal {name!r}; available: "
                           f"{sorted(table)}")
        return table[name]

    def mem(self, address: int) -> int:
        """Debugger-style non-intrusive memory read."""
        return self.bus.peek(address)


@dataclass
class Instrumentation:
    """Everything :meth:`SoC.instrument` attached, in one handle.

    Fields not requested stay ``None``.  ``sink``/``metrics`` are the
    shared defaults the attachments were wired to (an attachment that
    named its own sink keeps it; this handle does not track that).
    """

    soc: "SoC"
    sink: Optional[object] = None
    metrics: Optional[object] = None
    tracer: Optional[object] = None
    probe: Optional[object] = None
    detector: Optional[object] = None
    injector: Optional[object] = None

    def detach(self) -> None:
        """Release every attachment and restore the ISS batching tiers:
        the sanitizer and the tracer detach fully and the kernel
        observers of probe and injector are removed.  The tracer stays
        on this handle so its recorded events remain queryable."""
        if self.tracer is not None:
            self.tracer.detach()
        if self.detector is not None:
            self.detector.detach()
            self.detector = None
        if self.probe is not None:
            self.soc.sim.remove_observer(self.probe)
            self.probe = None
        if self.injector is not None:
            self.soc.sim.remove_observer(self.injector)
            self.injector = None


__all__ = ["DMA_BASE", "INTC_BASE", "INTC_STRIDE", "IRQ_VECTOR",
           "Instrumentation", "MBOX_BASE", "MBOX_STRIDE", "SEM_BASE",
           "SoC", "SoCConfig", "TIMER_BASE", "TIMER_STRIDE", "UART_BASE"]

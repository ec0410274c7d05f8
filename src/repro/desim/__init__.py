"""Discrete-event simulation kernel.

This is the SystemC stand-in used throughout the reproduction: the virtual
platform (:mod:`repro.vp`), the MAPS virtual platform (:mod:`repro.maps.mvp`),
the many-core OS model (:mod:`repro.manycore`) and the real-time executives
(:mod:`repro.rt`) all run on this kernel.

The kernel is process-based: simulation processes are Python generators that
``yield`` scheduling requests (:class:`Delay`, :class:`WaitEvent`, ...) back
to the :class:`Simulator`.  Execution is fully deterministic -- simultaneous
events are ordered by (time, priority, sequence number).

Example
-------
>>> from repro.desim import Simulator, Delay
>>> sim = Simulator()
>>> log = []
>>> def proc(name, period):
...     while True:
...         log.append((sim.now, name))
...         yield Delay(period)
>>> _ = sim.spawn(proc("a", 2))
>>> _ = sim.spawn(proc("b", 3))
>>> sim.run(until=6)
>>> log[:4]
[(0, 'a'), (0, 'b'), (2, 'a'), (3, 'b')]
"""

from repro.desim.events import Event, Signal
from repro.desim.kernel import (
    Delay,
    Interrupted,
    Process,
    ProcessFailed,
    SimObserver,
    Simulator,
    WaitEvent,
    WaitProcess,
)
from repro.desim.channels import ChannelClosed, Fifo, Mailbox
from repro.desim.resources import Mutex, Resource
from repro.desim.watchdog import Watchdog, WatchdogTimeout, with_timeout

__all__ = [
    "ChannelClosed",
    "Delay",
    "Event",
    "Fifo",
    "Interrupted",
    "Mailbox",
    "Mutex",
    "Process",
    "ProcessFailed",
    "Resource",
    "SimObserver",
    "Signal",
    "Simulator",
    "WaitEvent",
    "WaitProcess",
    "Watchdog",
    "WatchdogTimeout",
    "with_timeout",
]

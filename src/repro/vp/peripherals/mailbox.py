"""Inter-core hardware mailboxes with doorbell interrupts.

The section-II programming model ("messaging based ... at least on the OS
level") needs a hardware substrate; real MPSoCs use mailbox peripherals.
One :class:`MailboxBank` provides a mailbox per core:

====  =======  ========================================================
0     TX_DST   destination core id for the next send
1     TX_DATA  write = push word to TX_DST's mailbox, ring its doorbell
2     RX_DATA  read = pop own mailbox (0 if empty)
3     RX_COUNT (read-only) words waiting for the reading core
4     RX_SRC   (read-only) sender of the last popped word
====  =======  ========================================================

The bank decodes the *master* name ("core0", ...) to know whose mailbox a
register access refers to, so a single mapping serves every core -- like
per-core banked registers in hardware.  Each core has a ``doorbell``
signal for the interrupt controller.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, Tuple

from repro.desim import Signal

TX_DST, TX_DATA, RX_DATA, RX_COUNT, RX_SRC = 0, 1, 2, 3, 4


class MailboxBank:
    """Per-core hardware mailboxes with doorbell lines."""

    REG_COUNT = 5

    def __init__(self, n_cores: int, capacity: int = 8,
                 name: str = "mbox") -> None:
        self.name = name
        self.n_cores = n_cores
        self.capacity = capacity
        self.queues: List[Deque[Tuple[int, int]]] = [deque()
                                                     for _ in range(n_cores)]
        self.doorbells = [Signal(f"{name}{core}.doorbell", 0)
                          for core in range(n_cores)]
        self.tx_dst = [0] * n_cores
        self.last_src = [0] * n_cores
        self.dropped = 0

    # The bus calls read/write without the master; the SoC wraps us in a
    # decoding shim (see MailboxPort) so offset carries the core index.
    def core_read(self, core: int, offset: int) -> int:
        if offset == TX_DST:
            return self.tx_dst[core]
        if offset == TX_DATA:
            return 0
        if offset == RX_DATA:
            if not self.queues[core]:
                return 0
            source, word = self.queues[core].popleft()
            self.last_src[core] = source
            if not self.queues[core]:
                self.doorbells[core].write(0)
            return word
        if offset == RX_COUNT:
            return len(self.queues[core])
        if offset == RX_SRC:
            return self.last_src[core]
        raise IndexError(f"{self.name}: bad register {offset}")

    def core_peek(self, core: int, offset: int) -> int:
        if offset == RX_DATA:
            return self.queues[core][0][1] if self.queues[core] else 0
        return self.core_read(core, offset)

    def core_write(self, core: int, offset: int, value: int) -> None:
        if offset == TX_DST:
            if not 0 <= value < self.n_cores:
                raise IndexError(f"{self.name}: bad destination {value}")
            self.tx_dst[core] = int(value)
        elif offset == TX_DATA:
            destination = self.tx_dst[core]
            if len(self.queues[destination]) >= self.capacity:
                self.dropped += 1
                return
            self.queues[destination].append((core, int(value)))
            self.doorbells[destination].write(1)
        elif offset in (RX_DATA, RX_COUNT, RX_SRC):
            pass  # read-only
        else:
            raise IndexError(f"{self.name}: bad register {offset}")


class MailboxPort:
    """Per-core bus-facing view of the shared :class:`MailboxBank`."""

    REG_COUNT = MailboxBank.REG_COUNT

    def __init__(self, bank: MailboxBank, core: int) -> None:
        self.bank = bank
        self.core = core

    def read(self, offset: int) -> int:
        return self.bank.core_read(self.core, offset)

    def peek(self, offset: int) -> int:
        return self.bank.core_peek(self.core, offset)

    def write(self, offset: int, value: int) -> None:
        self.bank.core_write(self.core, offset, value)


__all__ = ["MailboxBank", "MailboxPort", "RX_COUNT", "RX_DATA", "RX_SRC",
           "TX_DATA", "TX_DST"]

"""Hardware semaphore bank.

Each word offset is one semaphore with *read-to-acquire* semantics:

- ``lw`` from offset ``i`` returns the previous value **and atomically
  sets the semaphore to 1**: a returned 0 means "you got it";
- ``sw`` of 0 to offset ``i`` releases it.

This mirrors the hardware semaphores found in multi-core SoCs, and is the
shared resource whose misuse produces the lost-update race in the
Heisenbug workload (E11): firmware that *skips* the semaphore acquires
nothing and corrupts the shared counter.
"""

from __future__ import annotations


class SemaphoreBank:
    """A bank of read-to-acquire hardware semaphores."""

    def __init__(self, count: int = 16, name: str = "sem") -> None:
        self.name = name
        self.count = count
        self.values = [0] * count
        self.acquire_attempts = [0] * count
        self.acquire_successes = [0] * count
        self.releases = [0] * count

    REG_COUNT = property(lambda self: self.count)  # type: ignore[assignment]

    def read(self, offset: int) -> int:
        """Read-to-acquire: returns the old value, sets to 1."""
        old = self.values[offset]
        self.values[offset] = 1
        self.acquire_attempts[offset] += 1
        if old == 0:
            self.acquire_successes[offset] += 1
        return old

    def peek(self, offset: int) -> int:
        """Debugger view: no acquire side effect."""
        return self.values[offset]

    def write(self, offset: int, value: int) -> None:
        # A store of 0 is only a *release* if the semaphore was actually
        # held; firmware clearing an already-free semaphore must not
        # inflate the contention counters.
        if value == 0 and self.values[offset] != 0:
            self.releases[offset] += 1
        self.values[offset] = int(value)


__all__ = ["SemaphoreBank"]

"""Happens-before tracking over the manycore NoC transport.

The actor/OS world of :mod:`repro.manycore` synchronizes through
:class:`~repro.manycore.messaging.NoCModel` messages instead of bus
peripherals.  :class:`NoCOrderTracker` installs itself as the model's
``hb_hook`` and maintains one vector clock per core:

- **send**      -- snapshot the sender's clock onto the message;
- **deliver**   -- the receiver joins that snapshot (message edge);
- **ack_sent**  -- snapshot the receiver's clock onto the ack
  (reliable mode only);
- **acked**     -- the sender joins the receiver snapshot (the
  reliable-NoC *ack edge*: after the ack, everything the receiver did
  before acknowledging happened-before the sender's continuation).

The tracker is a pure observer: it never delays, drops or reorders
messages, and with no hook installed the transport makes no hook call.
"""

from __future__ import annotations

from typing import Dict

from repro.manycore.messaging import Message, NoCModel
from repro.sanitize.vclock import VectorClock


class NoCOrderTracker:
    """Vector clocks over NoC message and ack edges."""

    def __init__(self, noc: NoCModel) -> None:
        if noc.hb_hook is not None:
            raise RuntimeError("NoC already has a happens-before hook")
        self.noc = noc
        self.clocks: Dict[int, VectorClock] = {
            core_id: VectorClock({f"core{core_id}": 1})
            for core_id in noc.mailboxes}
        self.edge_counts: Dict[str, int] = {
            "send": 0, "deliver": 0, "ack_sent": 0, "acked": 0}
        self._hook = self._on_edge  # one bound method, for identity checks
        noc.hb_hook = self._hook

    def detach(self) -> None:
        if self.noc.hb_hook is self._hook:
            self.noc.hb_hook = None

    # ------------------------------------------------------------------
    def clock(self, core_id: int) -> VectorClock:
        return self.clocks[core_id]

    def ordered(self, src: int, dst: int) -> bool:
        """Has everything ``src`` completed before its latest tracked
        edge happened-before ``dst``'s current point?  ``src``'s own
        component is compared one segment back: the segment *after* its
        last send/ack is still open and cannot be ordered yet."""
        own = f"core{src}"
        target = self.clocks[dst]
        for thread, value in self.clocks[src].clocks.items():
            if thread == own:
                value -= 1
            if target.get(thread) < value:
                return False
        return True

    # ------------------------------------------------------------------
    def _on_edge(self, kind: str, message: Message) -> None:
        self.edge_counts[kind] = self.edge_counts.get(kind, 0) + 1
        if kind == "send":
            vc = self.clocks[message.src]
            message._hb_send_clock = vc.snapshot()
            vc.tick(f"core{message.src}")
        elif kind == "deliver":
            snapshot = getattr(message, "_hb_send_clock", None)
            if snapshot is not None:
                self.clocks[message.dst].join(snapshot)
        elif kind == "ack_sent":
            vc = self.clocks[message.dst]
            message._hb_ack_clock = vc.snapshot()
            vc.tick(f"core{message.dst}")
        elif kind == "acked":
            snapshot = getattr(message, "_hb_ack_clock", None)
            if snapshot is not None:
                self.clocks[message.src].join(snapshot)


__all__ = ["NoCOrderTracker"]

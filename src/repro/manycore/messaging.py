"""Asynchronous message transport over the mesh NoC (section II).

The programming model of section II decouples cores and enforces "a
messaging based programming model, at least on the OS level".  The
:class:`NoCModel` delivers :class:`Message` objects between per-core
mailboxes with a latency determined by mesh distance and message size; it
runs on the discrete-event kernel so actor systems (see
:mod:`repro.manycore.actors`) get realistic asynchrony.

Two delivery modes:

- **best-effort** (default): the historical fire-and-forget transport.
  With no fault hook attached this is a single scheduled callback per
  message -- the fast path is byte-for-byte the pre-resilience code.
- **reliable** (``reliable=True``): per-flow sequence numbers, a
  payload checksum, receiver acks, timeout + exponential-backoff
  retransmission, and duplicate suppression.  Under an injected fault
  campaign (drop/duplicate/delay/corrupt, see :mod:`repro.faults`) the
  reliable mode still delivers every message exactly once to the
  application mailbox, trading latency for delivery -- the "degrade
  gracefully, don't crash" behaviour the ROADMAP's robustness pillar
  asks for.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Set, Tuple

from repro.desim import Mailbox, Simulator
from repro.manycore.machine import Machine

# A fault hook inspects one transmission and returns None (deliver
# normally) or a dict of actions: {"drop": True}, {"duplicate": True},
# {"corrupt": True}, {"extra_delay": float} -- combinable except drop.
FaultHook = Callable[["Message"], Optional[Dict[str, Any]]]

# A happens-before hook observes synchronization edges: ("send", m) when
# a message leaves the sender, ("deliver", m) when it reaches the
# destination mailbox, and in reliable mode ("ack_sent", m) /
# ("acked", m) for the receiver->sender ack edge.  Pure observation --
# see repro.sanitize.noc.NoCOrderTracker.
HBHook = Callable[[str, "Message"], None]


def _checksum(payload: Any) -> int:
    """Cheap deterministic payload digest for corruption detection."""
    return hash(repr(payload)) & 0xFFFFFFFF


@dataclass
class Message:
    """One asynchronous message."""

    src: int
    dst: int
    payload: Any
    size_words: int = 1
    tag: str = ""
    sent_at: float = 0.0
    delivered_at: float = 0.0
    # Reliable-mode transport state.
    seq: Optional[int] = None        # per-(src, dst) flow sequence number
    checksum: Optional[int] = None   # set on send in reliable mode
    attempts: int = 1                # transmissions performed so far
    corrupted: bool = field(default=False, compare=False)

    @property
    def latency(self) -> float:
        return self.delivered_at - self.sent_at

    @property
    def flow(self) -> Tuple[int, int]:
        return (self.src, self.dst)


class NoCModel:
    """Mesh network-on-chip with per-core mailboxes.

    Latency model: ``base + per_hop * hops + per_word * size``.  Messages
    between the same pair of cores are delivered in FIFO order (the
    transport serializes per destination link); messages from different
    sources may interleave, as on real hardware.

    Reliability knobs (used only when ``reliable=True``):

    - ``ack_timeout``: sim time before the first retransmission; default
      is 1.5x the modeled round-trip for the message.
    - ``max_retries``: transmissions before the message is declared
      undeliverable (counted, traced, never raised).
    - ``backoff``: multiplicative timeout growth per retry.

    ``sink``/``metrics`` are optional observability outputs; the
    fault-free best-effort path never touches them.
    """

    def __init__(self, sim: Simulator, machine: Machine,
                 base_latency: float = 5.0, per_hop: float = 2.0,
                 per_word: float = 0.5, reliable: bool = False,
                 ack_timeout: Optional[float] = None, max_retries: int = 10,
                 backoff: float = 2.0, sink: Optional[Any] = None,
                 metrics: Optional[Any] = None) -> None:
        self.sim = sim
        self.machine = machine
        self.base_latency = base_latency
        self.per_hop = per_hop
        self.per_word = per_word
        self.reliable = reliable
        self.ack_timeout = ack_timeout
        self.max_retries = max_retries
        self.backoff = backoff
        self.sink = sink
        self.metrics = metrics
        self.fault_hook: Optional[FaultHook] = None
        self.hb_hook: Optional[HBHook] = None
        self.mailboxes: Dict[int, Mailbox] = {
            core.core_id: Mailbox(f"mbox{core.core_id}")
            for core in machine.cores}
        self.messages_sent = 0
        self.total_latency = 0.0
        # Per-(src,dst) time the link frees up, to serialize same-pair order.
        self._link_free: Dict[tuple, float] = {}
        # Reliable-mode state.
        self._flow_next_seq: Dict[Tuple[int, int], int] = {}
        self._flow_delivered: Dict[Tuple[int, int], Set[int]] = {}
        self._pending: Dict[Tuple[int, int, int], Message] = {}
        self.undeliverable: int = 0

    def latency_for(self, src: int, dst: int, size_words: int) -> float:
        hops = self.machine.distance(src, dst)
        return self.base_latency + self.per_hop * hops + \
            self.per_word * size_words

    # ------------------------------------------------------------------
    # send
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, payload: Any,
             size_words: int = 1, tag: str = "") -> Message:
        """Asynchronous, non-blocking send; delivery happens after the
        modeled latency (plus retransmissions in reliable mode)."""
        if dst not in self.mailboxes:
            raise KeyError(f"no core {dst}")
        message = Message(src, dst, payload, size_words, tag,
                          sent_at=self.sim.now)
        if self.hb_hook is not None:
            self.hb_hook("send", message)
        if not self.reliable and self.fault_hook is None:
            # Fast path: exactly the historical best-effort transport.
            arrival = self.sim.now + self.latency_for(src, dst, size_words)
            key = (src, dst)
            arrival = max(arrival, self._link_free.get(key, 0.0))
            self._link_free[key] = arrival

            def deliver() -> None:
                message.delivered_at = self.sim.now
                self.total_latency += message.latency
                self.mailboxes[dst].send(message, sender=str(src))
                if self.hb_hook is not None:
                    self.hb_hook("deliver", message)

            self.sim.at(arrival, deliver)
            self.messages_sent += 1
            return message
        if self.reliable:
            flow = message.flow
            message.seq = self._flow_next_seq.get(flow, 0)
            self._flow_next_seq[flow] = message.seq + 1
            message.checksum = _checksum(payload)
            self._pending[flow + (message.seq,)] = message
        self.messages_sent += 1
        self._count("noc.sent")
        self._transmit(message, attempt=1)
        return message

    # ------------------------------------------------------------------
    # chaos / reliable transport internals
    # ------------------------------------------------------------------
    def _count(self, name: str, amount: float = 1.0) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _trace(self, name: str, **args: Any) -> None:
        if self.sink is not None:
            self.sink.instant(name, track="noc", ts=self.sim.now, **args)

    def _transmit(self, message: Message, attempt: int) -> None:
        faults = self.fault_hook(message) if self.fault_hook else None
        key = (message.src, message.dst)
        arrival = self.sim.now + self.latency_for(message.src, message.dst,
                                                  message.size_words)
        arrival = max(arrival, self._link_free.get(key, 0.0))
        self._link_free[key] = arrival  # dropped packets still burn the link
        copies = 1
        corrupted = False
        if faults is not None:
            if faults.get("drop"):
                copies = 0
                self._count("noc.drops")
                self._trace("noc.drop", src=message.src, dst=message.dst,
                            seq=message.seq, tag=message.tag)
            else:
                if faults.get("corrupt"):
                    corrupted = True
                    self._count("noc.corruptions")
                if faults.get("duplicate"):
                    copies = 2
                    self._count("noc.duplicates")
                extra = faults.get("extra_delay", 0.0)
                if extra:
                    arrival += extra
                    self._count("noc.delays")
        for _ in range(copies):
            self.sim.at(arrival,
                        lambda corrupted=corrupted: self._arrive(message,
                                                                 corrupted))
        if self.reliable:
            timeout = self._timeout_for(message) * \
                (self.backoff ** (attempt - 1))
            self.sim.at(self.sim.now + timeout,
                        lambda: self._retry_check(message, attempt))

    def _timeout_for(self, message: Message) -> float:
        if self.ack_timeout is not None:
            return self.ack_timeout
        rtt = self.latency_for(message.src, message.dst,
                               message.size_words) + \
            self.latency_for(message.dst, message.src, 1)
        return 1.5 * rtt

    def _arrive(self, message: Message, corrupted: bool) -> None:
        if not self.reliable:
            # Best-effort with a fault hook: deliver as-is, flagged.
            message.delivered_at = self.sim.now
            message.corrupted = message.corrupted or corrupted
            self.total_latency += message.latency
            self.mailboxes[message.dst].send(message,
                                             sender=str(message.src))
            if self.hb_hook is not None:
                self.hb_hook("deliver", message)
            return
        if corrupted:
            # Checksum mismatch at the receiver: discard, no ack -- the
            # sender's timeout covers recovery.
            self._count("noc.corrupt_discarded")
            self._trace("noc.corrupt_discarded", src=message.src,
                        dst=message.dst, seq=message.seq)
            return
        flow = message.flow
        delivered = self._flow_delivered.setdefault(flow, set())
        if message.seq in delivered:
            self._count("noc.dup_suppressed")
        else:
            delivered.add(message.seq)
            message.delivered_at = self.sim.now
            self.total_latency += message.latency
            self.mailboxes[message.dst].send(message,
                                             sender=str(message.src))
            self._count("noc.delivered")
            if self.hb_hook is not None:
                self.hb_hook("deliver", message)
        # Ack even a duplicate: the original ack may have been lost.
        self._send_ack(message)

    def _send_ack(self, message: Message) -> None:
        if self.hb_hook is not None:
            self.hb_hook("ack_sent", message)
        ack = Message(message.dst, message.src, ("ack", message.seq),
                      size_words=1, tag="__ack__", sent_at=self.sim.now,
                      seq=message.seq)
        faults = self.fault_hook(ack) if self.fault_hook else None
        arrival = self.sim.now + self.latency_for(ack.src, ack.dst, 1)
        if faults is not None:
            if faults.get("drop") or faults.get("corrupt"):
                self._count("noc.acks_lost")
                return
            arrival += faults.get("extra_delay", 0.0)
        key = message.flow + (message.seq,)
        self.sim.at(arrival, lambda: self._on_ack(key))

    def _on_ack(self, key: Tuple[int, int, int]) -> None:
        message = self._pending.pop(key, None)
        if message is None:
            return  # already acked (duplicate ack)
        self._count("noc.acked")
        if self.hb_hook is not None:
            self.hb_hook("acked", message)
        if self.metrics is not None and message.attempts > 1:
            self.metrics.histogram("noc.attempts_to_deliver").observe(
                message.attempts)

    def _retry_check(self, message: Message, attempt: int) -> None:
        key = message.flow + (message.seq,)
        if key not in self._pending:
            return  # acked meanwhile
        if attempt >= self.max_retries:
            self._pending.pop(key, None)
            self.undeliverable += 1
            self._count("noc.undeliverable")
            self._trace("noc.undeliverable", src=message.src,
                        dst=message.dst, seq=message.seq, tag=message.tag,
                        attempts=message.attempts)
            return
        message.attempts += 1
        self._count("noc.retries")
        self._trace("noc.retry", src=message.src, dst=message.dst,
                    seq=message.seq, attempt=attempt + 1)
        self._transmit(message, attempt + 1)

    # ------------------------------------------------------------------
    @property
    def in_flight(self) -> int:
        """Reliable-mode messages sent but not yet acked."""
        return len(self._pending)

    def mailbox(self, core_id: int) -> Mailbox:
        return self.mailboxes[core_id]


__all__ = ["FaultHook", "HBHook", "Message", "NoCModel"]

"""Persistent worker daemons behind the ExecutorBackend protocol.

A per-campaign process pool would pay its startup tax every campaign:
new forked images, cold decode caches, cold superblock JITs, cold
module-level memos.  This backend keeps a module-global pool of
long-lived worker processes connected over ``socketpair`` pipes, so the
*same* worker processes serve campaign after campaign and everything a
job function caches at module level (assembled programs, decode caches,
JIT'd superblocks) stays warm.

Wire protocol -- length-prefixed canonical-JSON frames (``">I"`` byte
count, then UTF-8 JSON)::

    parent -> worker   {"op": "job", "tag": n, "ref": .., "config": .., "seed": ..}
    worker -> parent   {"op": "done", "tag": n, "status": "ok"|"error",
                        "value": .., "elapsed": ..}
    parent -> worker   {"op": "ping", "n": k}     worker -> {"op": "pong", "n": k}
    parent -> worker   {"op": "exit"}

Everything on the wire is JSON the job contract already guarantees
(configs are canonical-JSON-validated at submission; a worker's reply
encode is its result's check), so there is no pickling anywhere in this
backend.  A job frame embeds the config text :meth:`Job.build` encoded.

Pipelining: a worker runs one job and holds at most one more, queued in
its socket, so it starts the next job without waiting for the parent.
Jobs go to the least-loaded worker, and a second slot is filled only
while the engine holds more jobs than there are workers, so the last
jobs never queue behind a running one while another worker is idle.  A
queued frame is written only as far as the socket buffer takes it
without blocking; the rest is sent when the worker finishes its running
job, so a prefetch never stalls dispatch to the other workers.

Liveness and blame: a worker still runs one job at a time, so a dead
socket *is* an attributable crash of its running job -- the backend
reports ``crash`` for that tag, ``returned`` for the tag queued behind
it (it never started, and the engine re-queues it without spending an
attempt), replaces the worker, and the engine's retry budget does the
rest.  A job's timeout clock starts when it becomes its worker's
running job: at submission on an idle worker, otherwise when the parent
receives the previous job's ``done`` frame.  Cancelling a timed-out job
returns the job queued behind it the same way.  Idle workers are
heartbeat-pinged on acquisition and silently replaced if dead.
"""

from __future__ import annotations

import atexit
import json
import multiprocessing
import os
import select
import socket
import struct
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.core.serde import canonical_json
from repro.farm.backends.base import (
    STATUS_CRASH, STATUS_ERROR, STATUS_OK, STATUS_RETURNED,
    Completion, ExecutorBackend, error_message, execute_payload,
    require_fork,
)
from repro.farm.job import Job, canonical_object

_HEADER = struct.Struct(">I")
_MAX_FRAME = 256 * 1024 * 1024
_PING_TIMEOUT = 5.0
_DEPTH = 2   # jobs a worker holds: the running one and one queued


def _pack(text: str) -> bytes:
    """One wire frame: the byte count, then the UTF-8 JSON text."""
    data = text.encode("utf-8")
    if len(data) > _MAX_FRAME:
        raise ValueError(f"frame of {len(data)} bytes exceeds wire limit")
    return _HEADER.pack(len(data)) + data


def _send_frame(sock: socket.socket, payload: Dict[str, Any]) -> None:
    sock.sendall(_pack(canonical_json(payload)))


def _send_nowait(sock: socket.socket, data: bytes) -> bytes:
    """Write what ``sock`` takes without blocking; returns the rest."""
    view = memoryview(data)
    try:
        while view:
            view = view[sock.send(view, socket.MSG_DONTWAIT):]
    except OSError:
        pass  # a full buffer (or a dead peer, which drain reports)
    return bytes(view)


def job_frame(tag: int, job: Job) -> str:
    """The frame that hands ``job`` to a worker under ``tag``, with the
    job's config text embedded rather than encoded again."""
    return canonical_object({
        "config": job.config_json, "op": canonical_json("job"),
        "ref": canonical_json(job.ref), "seed": canonical_json(job.seed),
        "tag": canonical_json(tag)})


def _recv_exact(sock: socket.socket, count: int) -> Optional[bytes]:
    chunks: List[bytes] = []
    remaining = count
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 20))
        if not chunk:
            return None
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _recv_frame(sock: socket.socket) -> Optional[Dict[str, Any]]:
    header = _recv_exact(sock, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > _MAX_FRAME:
        return None
    body = _recv_exact(sock, length)
    if body is None:
        return None
    try:
        payload = json.loads(body.decode("utf-8"))
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _worker_main(sock: socket.socket) -> None:
    """Daemon worker loop: serve job/ping frames until exit or EOF."""
    while True:
        try:
            frame = _recv_frame(sock)
        except OSError:
            break
        if frame is None or frame.get("op") == "exit":
            break
        op = frame.get("op")
        try:
            if op == "ping":
                _send_frame(sock, {"op": "pong", "n": frame.get("n")})
            elif op == "job":
                status, value, elapsed = execute_payload(
                    (frame["ref"], frame["config"], frame["seed"]))
                reply = {"op": "done", "tag": frame["tag"],
                         "status": status, "value": value,
                         "elapsed": elapsed}
                try:
                    # Encoding the reply is the result's JSON check.
                    data = _pack(canonical_json(reply))
                except Exception as error:  # noqa: BLE001
                    reply.update(status=STATUS_ERROR,
                                 value=error_message(error))
                    data = _pack(canonical_json(reply))
                sock.sendall(data)
        except OSError:
            break
    try:
        sock.close()
    except OSError:
        pass


class DaemonWorker:
    """One long-lived worker process plus its parent-side socket."""

    def __init__(self) -> None:
        require_fork("the daemon backend")
        parent_sock, child_sock = socket.socketpair()
        context = multiprocessing.get_context("fork")
        self.process = context.Process(target=_worker_main,
                                       args=(child_sock,), daemon=True)
        self.process.start()
        child_sock.close()
        self.sock = parent_sock
        # Tags this worker holds: the running one first, then at most
        # _DEPTH - 1 queued behind it.
        self.tags: List[int] = []
        self.started = 0.0     # time.monotonic() when tags[0] started
        self.backlog = b""     # unsent tail of the queued job's frame
        self._pings = 0

    @property
    def pid(self) -> Optional[int]:
        return self.process.pid

    def send(self, payload: Dict[str, Any]) -> None:
        _send_frame(self.sock, payload)

    def ping(self, timeout: float = _PING_TIMEOUT) -> bool:
        """Heartbeat: round-trip a ping; False means the worker is dead
        or wedged and must be replaced."""
        self._pings += 1
        token = self._pings
        try:
            self.send({"op": "ping", "n": token})
            while True:
                readable, _, _ = select.select([self.sock], [], [], timeout)
                if not readable:
                    return False
                frame = _recv_frame(self.sock)
                if frame is None:
                    return False
                if frame.get("op") == "pong" and frame.get("n") == token:
                    return True
                # Anything else on the wire here is protocol desync
                # (e.g. a stale done frame after a kill): replace.
                return False
        except OSError:
            return False

    def kill(self) -> None:
        try:
            self.sock.close()
        except OSError:
            pass
        try:
            self.process.kill()
        except (OSError, ValueError, AttributeError):
            pass
        try:
            self.process.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass

    def shutdown(self) -> None:
        """Polite exit: send the exit frame, then make sure."""
        try:
            self.send({"op": "exit"})
        except OSError:
            pass
        try:
            self.process.join(timeout=1.0)
        except (OSError, ValueError, AssertionError):
            pass
        self.kill()


# ---------------------------------------------------------------------------
# the persistent pool (module-global: this is what makes workers warm
# across campaigns in one driving process)
# ---------------------------------------------------------------------------

_IDLE: List[DaemonWorker] = []
_SHUTDOWN_REGISTERED = False


def _register_shutdown() -> None:
    global _SHUTDOWN_REGISTERED
    if not _SHUTDOWN_REGISTERED:
        atexit.register(shutdown_daemons)
        _SHUTDOWN_REGISTERED = True


def acquire_workers(count: int) -> List[DaemonWorker]:
    """Check ``count`` live workers out of the persistent pool, pinging
    idle ones and replacing any that died while parked."""
    _register_shutdown()
    workers: List[DaemonWorker] = []
    while _IDLE and len(workers) < count:
        worker = _IDLE.pop(0)
        if worker.process.is_alive() and worker.ping():
            workers.append(worker)
        else:
            worker.kill()
    while len(workers) < count:
        workers.append(DaemonWorker())
    return workers


def release_workers(workers: Sequence[DaemonWorker]) -> None:
    """Return workers to the pool warm; anything still carrying a job
    is wedged and is killed instead."""
    for worker in workers:
        if not worker.tags and worker.process.is_alive():
            _IDLE.append(worker)
        else:
            worker.kill()


def shutdown_daemons() -> None:
    """Stop every parked daemon worker (atexit, and tests)."""
    while _IDLE:
        _IDLE.pop().shutdown()


def warm_worker_pids(count: int) -> List[int]:
    """Pids of ``count`` pool workers (spawning as needed) -- used by
    tests and benches to prove warm reuse without running a campaign."""
    workers = acquire_workers(count)
    pids = [worker.pid for worker in workers]
    release_workers(workers)
    return [pid for pid in pids if pid is not None]


# ---------------------------------------------------------------------------
# the backend
# ---------------------------------------------------------------------------

class DaemonBackend(ExecutorBackend):
    """Campaign-facing view over ``width`` persistent workers."""

    def __init__(self, width: int) -> None:
        require_fork("the daemon backend")
        if width < 1:
            raise ValueError(f"daemon backend width must be >= 1, "
                             f"got {width}")
        self.width = width
        self._workers = acquire_workers(width)
        self._buffered: List[Completion] = []

    # ------------------------------------------------------------------
    def _replace(self, worker: DaemonWorker) -> DaemonWorker:
        """Kill ``worker`` and start a fresh one in its place; the tags
        it still held never started, so they come back as returned."""
        self._buffered.extend(Completion(tag, STATUS_RETURNED)
                              for tag in worker.tags)
        worker.kill()
        fresh = DaemonWorker()
        self._workers = [fresh if w is worker else w for w in self._workers]
        return fresh

    def _start_next(self, worker: DaemonWorker) -> None:
        """The worker's queued job becomes its running one: start its
        timeout clock and send what is left of its frame (the worker is
        reading now, so this does not wait on a running job)."""
        worker.started = time.monotonic()
        if worker.backlog:
            try:
                worker.sock.sendall(worker.backlog)
            except OSError:
                self._replace(worker)
                return
            worker.backlog = b""

    def accepting(self, waiting: int) -> bool:
        # A second slot is filled only while the engine holds more jobs
        # than there are workers, so the last jobs never wait behind a
        # running one while another worker is idle.
        load = min(len(worker.tags) for worker in self._workers)
        return load == 0 or (load < _DEPTH and waiting > self.width)

    def submit(self, tag: int, job: Job) -> None:
        worker = min(self._workers, key=lambda w: len(w.tags))
        frame = _pack(job_frame(tag, job))
        if worker.tags:
            # Prefetch behind the running job: write only what the
            # socket buffer takes now.  A dead worker shows up in drain.
            worker.backlog = _send_nowait(worker.sock, frame)
            worker.tags.append(tag)
            return
        try:
            worker.sock.sendall(frame)
        except OSError:
            # The parked worker died between heartbeat and use: replace
            # it and retry once on the fresh process.
            worker = self._replace(worker)
            try:
                worker.sock.sendall(frame)
            except OSError:
                self._replace(worker)
                self._buffered.append(Completion(
                    tag, STATUS_CRASH, "daemon worker unreachable"))
                return
        worker.tags.append(tag)
        worker.started = time.monotonic()

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        if self._buffered:
            completions, self._buffered = self._buffered, []
            return completions
        busy = {worker.sock: worker for worker in self._workers
                if worker.tags}
        if not busy:
            return []
        readable, _, _ = select.select(list(busy), [], [], timeout)
        completions: List[Completion] = []
        for sock in readable:
            worker = busy[sock]
            tag = worker.tags.pop(0)
            try:
                frame = _recv_frame(sock)
            except OSError:
                frame = None
            if frame is None or frame.get("op") != "done" \
                    or frame.get("tag") != tag:
                # EOF or protocol desync: the worker died under its
                # running job.  Only that job had started, so the blame
                # is certain; the one queued behind it is returned.
                completions.append(Completion(
                    tag, STATUS_CRASH, "daemon worker died"))
                self._replace(worker)
                continue
            status = STATUS_OK if frame.get("status") == "ok" \
                else STATUS_ERROR
            completions.append(Completion(
                tag, status, frame.get("value"),
                float(frame.get("elapsed") or 0.0)))
            if worker.tags:
                self._start_next(worker)
        completions.extend(self._buffered)
        self._buffered = []
        return completions

    def running(self) -> Dict[int, float]:
        return {worker.tags[0]: worker.started
                for worker in self._workers if worker.tags}

    def cancel(self, tags: Sequence[int]) -> None:
        # Each worker runs one job, so killing a timed-out job's worker
        # interrupts no sibling; its queued job is returned unspent.
        for worker in list(self._workers):
            if worker.tags and worker.tags[0] in tags:
                worker.tags.pop(0)
                self._replace(worker)

    def teardown(self) -> None:
        # Busy workers at teardown are wedged (the engine only tears
        # down after draining); release_workers kills them and parks the
        # idle ones warm for the next campaign.
        self._buffered.clear()
        release_workers(self._workers)
        self._workers = []


__all__ = [
    "DaemonBackend", "DaemonWorker", "acquire_workers", "job_frame",
    "release_workers", "shutdown_daemons", "warm_worker_pids",
]

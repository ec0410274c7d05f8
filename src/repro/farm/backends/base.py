"""The ExecutorBackend protocol: what the campaign engine runs jobs on.

The engine owns *policy* -- ordered aggregation, caching, retry budget,
timeout charging -- and a backend owns *mechanism*: getting a submitted
job executed somewhere and reporting what happened.  The whole contract
is six methods and one attribute:

- :meth:`ExecutorBackend.accepting` -- whether :meth:`submit` takes one
  more job now, given how many the engine still has waiting;
- :meth:`ExecutorBackend.submit` -- start one job under an integer tag
  (the engine uses the job's submission index, so completions map back
  to their aggregation slot without any shared state);
- :meth:`ExecutorBackend.drain` -- block up to a timeout and return the
  :class:`Completion` batch that arrived;
- :meth:`ExecutorBackend.running` -- the tags executing now, with the
  time each started (where the engine's timeout clock starts);
- :meth:`ExecutorBackend.cancel` -- kill specific running tags (for
  timeout enforcement);
- :meth:`ExecutorBackend.teardown` -- release resources; warm backends
  may keep their workers for the next campaign;
- ``in_process`` -- jobs run in the calling process: closures are
  allowed, crashes are impossible, timeouts are unenforceable.

Completion statuses:

- ``ok`` / ``error`` -- the job function returned / raised; ``value``
  is the result / message;
- ``crash`` -- the worker died underneath the job (each worker runs one
  job at a time, so the blame is always certain);
- ``returned`` -- the job never started: it was queued on a worker that
  died or was cancelled first.  The engine queues it again without
  spending an attempt.

Determinism invariant: a backend influences only *where and when* jobs
execute, never what enters the aggregate -- every ``ok`` value has been
through exactly one JSON encode and decode (the inline backend
round-trips it, the daemon's wire does), and the engine merges by tag
order, so any backend is byte-identical to the ``jobs=1`` oracle.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.serde import json_roundtrip
from repro.farm.job import Job, resolve_ref

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CRASH = "crash"
STATUS_RETURNED = "returned"


def fork_available() -> bool:
    """True when this platform can start worker processes by fork."""
    return "fork" in multiprocessing.get_all_start_methods()


def require_fork(what: str) -> None:
    """Reject spawn-only platforms up front with an actionable error.

    The daemon backend relies on fork semantics (workers inherit the
    parent's imported modules, so job functions defined in scripts and
    test files resolve by name).  On a spawn-only platform that used to
    surface as a pickle failure halfway into a sweep; now it is an
    immediate, explicit error.
    """
    if not fork_available():
        raise RuntimeError(
            f"{what} requires the 'fork' process start method, which this "
            f"platform does not support (available: "
            f"{multiprocessing.get_all_start_methods()}). Use jobs=1 / "
            f"backend='inline' for the in-process reference path.")


def execute_payload(payload: Tuple[str, Any, int]) -> Tuple[str, Any, float]:
    """Worker-side entry: resolve the function by name and run it.

    Returns ``("ok", result, elapsed)`` or ``("error", message, elapsed)``;
    never raises, so the only way an execution is lost is the worker
    dying.  The result is not checked for JSON here: the worker's reply
    frame encodes it, and a result that cannot be encoded is reported
    through :func:`error_message` instead.
    """
    ref, config, seed = payload
    start = time.perf_counter()
    try:
        fn = resolve_ref(ref)
        return ("ok", fn(config, seed), time.perf_counter() - start)
    except BaseException as error:  # noqa: BLE001 -- structured, not lost
        return ("error", error_message(error), time.perf_counter() - start)


def error_message(error: BaseException) -> str:
    """One line naming ``error`` (call it inside its ``except`` block)."""
    tail = traceback.format_exc(limit=3).strip().splitlines()[-1]
    message = f"{type(error).__name__}: {error}"
    if tail and tail not in message:
        message = f"{message} [{tail}]"
    return message


@dataclass
class Completion:
    """One finished (or lost) execution, reported by a backend."""

    tag: int
    status: str           # STATUS_OK | _ERROR | _CRASH | _RETURNED
    value: Any = None     # pure-JSON result for ok, message for error/crash
    elapsed: float = 0.0


class ExecutorBackend:
    """Abstract execution substrate; see the module docstring for the
    full contract."""

    in_process: bool = False
    width: int

    def accepting(self, waiting: int) -> bool:
        """Whether :meth:`submit` takes one more job now; ``waiting``
        counts the jobs the engine has queued, that one included."""
        raise NotImplementedError

    def submit(self, tag: int, job: Job) -> None:
        raise NotImplementedError

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        raise NotImplementedError

    def running(self) -> Dict[int, float]:
        """Tag -> ``time.monotonic()`` at which it started executing,
        for every tag executing now (submitted tags still queued behind
        another job are not running)."""
        raise NotImplementedError

    def cancel(self, tags: Sequence[int]) -> None:
        """Kill the workers running the given tags; tags queued behind
        them come back from :meth:`drain` as ``returned``."""
        raise NotImplementedError

    def teardown(self) -> None:
        raise NotImplementedError

    def __enter__(self) -> "ExecutorBackend":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.teardown()


class InlineBackend(ExecutorBackend):
    """The in-process reference oracle (``jobs=1``).

    Executes each submission synchronously inside :meth:`drain`, calling
    the job's function object directly -- no pickling, no import by
    name, closures allowed -- and normalizes the result through one JSON
    round-trip, the way the daemon's wire does.  Every other backend is
    measured against this one's aggregate bytes.
    """

    in_process = True

    def __init__(self, width: int = 1) -> None:
        self.width = 1
        self._pending: List[Tuple[int, Job]] = []

    def accepting(self, waiting: int) -> bool:
        return not self._pending

    def submit(self, tag: int, job: Job) -> None:
        self._pending.append((tag, job))

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        if not self._pending:
            return []
        tag, job = self._pending.pop(0)
        start = time.perf_counter()
        try:
            result = json_roundtrip(job.fn(job.config, job.seed))
        except BaseException as error:  # noqa: BLE001
            return [Completion(tag, STATUS_ERROR,
                               f"{type(error).__name__}: {error}",
                               time.perf_counter() - start)]
        return [Completion(tag, STATUS_OK, result,
                           time.perf_counter() - start)]

    def running(self) -> Dict[int, float]:
        return {}

    def cancel(self, tags: Sequence[int]) -> None:
        pass

    def teardown(self) -> None:
        self._pending.clear()


__all__ = [
    "Completion", "ExecutorBackend", "InlineBackend", "STATUS_CRASH",
    "STATUS_ERROR", "STATUS_OK", "STATUS_RETURNED", "error_message",
    "execute_payload", "fork_available", "require_fork",
]

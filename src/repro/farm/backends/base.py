"""The ExecutorBackend protocol: what the campaign engine runs jobs on.

The engine owns *policy* -- ordered aggregation, caching, retry budget,
timeout charging -- and a backend owns *mechanism*: getting a submitted
job executed somewhere and reporting what happened.  The whole contract
is four methods and one attribute:

- :meth:`ExecutorBackend.submit` -- start one job under an integer tag
  (the engine uses the job's submission index, so completions map back
  to their aggregation slot without any shared state);
- :meth:`ExecutorBackend.drain` -- block up to a timeout and return the
  :class:`Completion` batch that arrived;
- :meth:`ExecutorBackend.cancel` -- kill specific in-flight tags (for
  timeout enforcement);
- :meth:`ExecutorBackend.teardown` -- release resources; warm backends
  may keep their workers for the next campaign;
- ``in_process`` -- jobs run in the calling process: closures are
  allowed, crashes are impossible, timeouts are unenforceable.

Completion statuses:

- ``ok`` / ``error`` -- the job function returned / raised; ``value``
  is the result / message;
- ``crash`` -- the worker died underneath the job (each worker runs one
  job at a time, so the blame is always certain).

Determinism invariant: a backend influences only *where and when* jobs
execute, never what enters the aggregate -- the engine normalizes every
result through one JSON round-trip and merges by tag order, so any
backend is byte-identical to the ``jobs=1`` oracle.
"""

from __future__ import annotations

import multiprocessing
import time
import traceback
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

from repro.core.serde import canonical_json
from repro.farm.job import Job, resolve_ref

STATUS_OK = "ok"
STATUS_ERROR = "error"
STATUS_CRASH = "crash"


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
    dying.
    """
    ref, config, seed = payload
    start = time.perf_counter()
    try:
        fn = resolve_ref(ref)
        result = fn(config, seed)
        canonical_json(result)  # non-JSON results must fail here, loudly
        return ("ok", result, time.perf_counter() - start)
    except BaseException as error:  # noqa: BLE001 -- structured, not lost
        tail = traceback.format_exc(limit=3).strip().splitlines()[-1]
        message = f"{type(error).__name__}: {error}"
        if tail and tail not in message:
            message = f"{message} [{tail}]"
        return ("error", message, time.perf_counter() - start)


@dataclass
class Completion:
    """One finished (or lost) execution, reported by a backend."""

    tag: int
    status: str           # STATUS_OK | STATUS_ERROR | STATUS_CRASH
    value: Any = None     # result for ok, message for error/crash
    elapsed: float = 0.0


class ExecutorBackend:
    """Abstract execution substrate; see the module docstring for the
    full contract."""

    in_process: bool = False
    width: int

    def submit(self, tag: int, job: Job) -> None:
        raise NotImplementedError

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        raise NotImplementedError

    def cancel(self, tags: Sequence[int]) -> None:
        """Kill the workers running the given in-flight tags."""
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
    name, closures allowed.  Every other backend is measured against
    this one's aggregate bytes.
    """

    in_process = True

    def __init__(self, width: int = 1) -> None:
        self.width = 1
        self._pending: List[Tuple[int, Job]] = []

    def submit(self, tag: int, job: Job) -> None:
        self._pending.append((tag, job))

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        if not self._pending:
            return []
        tag, job = self._pending.pop(0)
        start = time.perf_counter()
        try:
            result = job.fn(job.config, job.seed)
            canonical_json(result)
        except BaseException as error:  # noqa: BLE001
            return [Completion(tag, STATUS_ERROR,
                               f"{type(error).__name__}: {error}",
                               time.perf_counter() - start)]
        return [Completion(tag, STATUS_OK, result,
                           time.perf_counter() - start)]

    def cancel(self, tags: Sequence[int]) -> None:
        pass

    def teardown(self) -> None:
        self._pending.clear()


__all__ = [
    "Completion", "ExecutorBackend", "InlineBackend", "STATUS_CRASH",
    "STATUS_ERROR", "STATUS_OK", "execute_payload", "fork_available",
    "require_fork",
]

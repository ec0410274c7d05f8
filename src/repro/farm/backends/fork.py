"""Fork ProcessPoolExecutor behind the ExecutorBackend protocol.

The original farm substrate, unchanged in mechanism: a
``ProcessPoolExecutor`` over the fork start method, one future per job,
workers re-importing job functions by name.  What moved here is the
*blame bookkeeping* that used to live inline in the engine:

- a pool break with exactly one interrupted job is an attributable
  ``crash`` (the pool is rebuilt and the campaign continues);
- a break with several jobs in flight cannot name its killer, so every
  interrupted job comes back as a ``suspect`` completion (in tag order)
  for the engine to refund and re-run in isolated width-1 pools;
- a submission refused because the pool already broke (a worker died
  after the last drain) is interrupted by that same break: the tag is
  held back and blamed with the in-flight jobs at the next drain;
- :meth:`cancel` (timeout enforcement) can only tear the whole pool
  down, so it reports every other in-flight tag as collateral.

Pool teardown never waits on hung workers: processes are terminated
outright, because a timed-out job is by definition not going to finish.
"""

from __future__ import annotations

import multiprocessing
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Dict, List, Optional, Sequence

from repro.farm.backends.base import (
    STATUS_CRASH, STATUS_ERROR, STATUS_OK, STATUS_SUSPECT,
    BackendCapabilities, Completion, ExecutorBackend, execute_payload,
    require_fork,
)
from repro.farm.job import Job


class ForkPoolBackend(ExecutorBackend):
    """One campaign's worth of fork-pool execution."""

    capabilities = BackendCapabilities(kind="fork")

    def __init__(self, width: int) -> None:
        require_fork("the fork-pool backend")
        if width < 1:
            raise ValueError(f"fork backend width must be >= 1, got {width}")
        self.width = width
        self._pool: Optional[ProcessPoolExecutor] = None
        self._futures: Dict[Future, int] = {}
        self._tags: Dict[int, Future] = {}
        self._refused: List[int] = []

    # ------------------------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        if self._pool is None:
            context = multiprocessing.get_context("fork")
            self._pool = ProcessPoolExecutor(max_workers=self.width,
                                             mp_context=context)
        return self._pool

    def _kill_pool(self) -> None:
        """Tear the pool down without waiting on hung or dead workers."""
        pool, self._pool = self._pool, None
        self._futures.clear()
        self._tags.clear()
        self._refused.clear()
        if pool is None:
            return
        processes = list(getattr(pool, "_processes", {}).values())
        pool.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            try:
                process.terminate()
            except (OSError, ValueError, AttributeError):
                pass

    # ------------------------------------------------------------------
    def submit(self, tag: int, job: Job) -> None:
        try:
            future = self._ensure_pool().submit(
                execute_payload, (job.ref, job.config, job.seed))
        except BrokenProcessPool:
            # A worker died since the last drain and the pool refuses new
            # work: the tag is an innocent sibling of that break.
            self._refused.append(tag)
            return
        self._futures[future] = tag
        self._tags[tag] = future

    def drain(self, timeout: Optional[float]) -> List[Completion]:
        if not self._futures and not self._refused:
            return []
        finished = set()
        if self._futures:
            finished, _ = wait(set(self._futures), timeout=timeout,
                               return_when=FIRST_COMPLETED)
        completions: List[Completion] = []
        broken: List[int] = []
        for future in finished:
            tag = self._futures.pop(future)
            self._tags.pop(tag, None)
            try:
                status, payload, elapsed = future.result()
            except BrokenProcessPool:
                # Completed siblings in this same batch keep their
                # results; only the interrupted ones are collected.
                broken.append(tag)
                continue
            completions.append(Completion(
                tag, STATUS_OK if status == "ok" else STATUS_ERROR,
                payload, elapsed))
        if broken or self._refused:
            survivors = sorted(list(self._futures.values())
                               + self._refused)
            self._kill_pool()
            if len(broken) == 1 and not survivors:
                # Alone in the pool: blame is certain.
                completions.append(Completion(
                    broken[0], STATUS_CRASH, "worker process died"))
            else:
                for tag in sorted(broken + survivors):
                    completions.append(Completion(
                        tag, STATUS_SUSPECT,
                        "worker pool broke with multiple jobs in flight"))
        return completions

    def cancel(self, tags: Sequence[int]) -> List[int]:
        doomed = set(tags)
        collateral = sorted(tag for tag in list(self._tags) + self._refused
                            if tag not in doomed)
        # Hung workers cannot be cancelled individually: replace the
        # whole pool, reporting the innocent in-flight tags for requeue.
        self._kill_pool()
        return collateral

    def teardown(self) -> None:
        self._kill_pool()


__all__ = ["ForkPoolBackend"]

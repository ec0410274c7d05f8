"""Job model of the campaign engine: named pure functions + data.

A :class:`Job` is the unit the farm schedules: a *named pure function*
(``fn(config, seed) -> result``), a JSON-serializable ``config`` and an
integer ``seed``.  Purity is the whole contract -- given the same
``(fn, config, seed)`` the function must return the same JSON-shaped
value on every run, in every process (the repo's simulations guarantee
exactly this: every run is a pure function of its config and seed).

Everything here is about making that contract *mechanically checkable*:

- every key and aggregate is built on
  :func:`repro.core.serde.canonical_json` (sorted keys, tight
  separators, no NaN), so equal values always produce equal bytes;
- :func:`func_ref` / :func:`resolve_ref` -- a function's durable name
  (``module:qualname``), the form workers import it by and the form the
  cache keys hash;
- :func:`job_key` -- the content address of one evaluation:
  ``sha256(canonical_json([ref, config, seed, salt]))``.  The ``salt``
  carries the code version (see :func:`source_salt`), so editing a job
  function invalidates its cached results without touching the cache
  directory.

A job's config is encoded once, when :meth:`Job.build` validates it.
Its cache key, wire frame, manifest entry and cache metadata embed that
text through :func:`canonical_object`, byte-identical to encoding the
dict forms afresh.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, Optional

from repro.core.serde import canonical_json


def func_ref(fn: Callable[..., Any]) -> str:
    """The durable ``module:qualname`` name of a function."""
    module = getattr(fn, "__module__", None)
    qualname = getattr(fn, "__qualname__", None)
    if not module or not qualname:
        raise TypeError(f"job function {fn!r} has no module/qualname")
    return f"{module}:{qualname}"


def resolve_ref(ref: str) -> Callable[..., Any]:
    """Resolve a ``module:qualname`` reference back to the function.

    Raises :class:`ValueError` for references that can never resolve
    (closures, lambdas defined inside other functions) and lets import
    errors propagate -- a worker must fail loudly, not guess.
    """
    module_name, _, qualname = ref.partition(":")
    if not module_name or not qualname:
        raise ValueError(f"malformed function reference {ref!r} "
                         f"(expected 'module:qualname')")
    if "<locals>" in qualname or "<lambda>" in qualname:
        raise ValueError(
            f"{ref!r} is not importable (closure or lambda); farm jobs "
            f"must be module-level functions")
    obj: Any = import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    if not callable(obj):
        raise ValueError(f"{ref!r} resolved to non-callable {obj!r}")
    return obj


@functools.lru_cache(maxsize=128)
def source_salt(fn: Callable[..., Any]) -> str:
    """A short digest of the function's source: the code-version salt.

    When the job function's body changes, the salt changes and every
    cached result keyed under the old salt is simply never hit again.
    Functions without retrievable source (builtins, C extensions) salt
    to the empty string -- their cache entries then only invalidate via
    the campaign's explicit ``salt``.  Memoized per function object
    (the 128 most recent): an edited function is a new object once its
    module is imported again.
    """
    try:
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        return ""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]


def job_key(ref: str, config: Any, seed: int, salt: str = "") -> str:
    """Content address of one evaluation."""
    payload = canonical_json([ref, config, seed, salt])
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def canonical_object(members: Dict[str, str]) -> str:
    """Canonical JSON of an object whose member values are given as
    their canonical JSON texts: the bytes :func:`canonical_json` would
    write for the decoded dict, without re-encoding the members."""
    return "{" + ",".join(f"{canonical_json(name)}:{text}"
                          for name, text in sorted(members.items())) + "}"


@dataclass(frozen=True)
class Job:
    """One schedulable evaluation.

    ``fn`` is kept for the in-process reference path; identity (cache
    key, worker payload) uses only ``ref``/``config``/``seed`` so a job
    means the same thing in every process.  ``config_json`` is the
    config's canonical JSON, encoded once by :meth:`build`.
    """

    fn: Callable[[Any, int], Any]
    config: Any
    seed: int
    name: str
    ref: str
    config_json: str = field(repr=False)

    @classmethod
    def build(cls, fn: Callable[[Any, int], Any], config: Any = None,
              seed: int = 0, name: Optional[str] = None) -> "Job":
        ref = func_ref(fn)
        # Fail at submission time on configs that can never be hashed,
        # shipped to a worker, or cached.
        config_json = canonical_json(config)
        if name is None:
            name = f"{ref.rsplit(':', 1)[1]}[{seed}]"
        return cls(fn=fn, config=config, seed=int(seed), name=name, ref=ref,
                   config_json=config_json)

    def key(self, salt: str = "") -> str:
        """:func:`job_key` of this job."""
        payload = ",".join((canonical_json(self.ref), self.config_json,
                            canonical_json(self.seed), canonical_json(salt)))
        return hashlib.sha256(f"[{payload}]".encode("utf-8")).hexdigest()

    def spec_json(self, ref_name: str = "ref") -> str:
        """Canonical JSON of ``{"config", "name", <ref_name>: ref,
        "seed"}``: a manifest entry, or with ``ref_name="fn"`` the
        ``job`` metadata of a cache entry."""
        return canonical_object({
            "config": self.config_json, "name": canonical_json(self.name),
            ref_name: canonical_json(self.ref),
            "seed": canonical_json(self.seed)})


# Failure kinds, in escalating order of violence.
FAILURE_ERROR = "error"      # the job function raised
FAILURE_TIMEOUT = "timeout"  # the job exceeded the per-job timeout
FAILURE_CRASH = "crash"      # the worker process died underneath it


@dataclass
class JobFailure:
    """Structured record of one job that did not produce a result.

    A failed job never loses the sweep: the campaign carries this record
    in the failed job's submission slot and every other job's result is
    unaffected.
    """

    name: str
    ref: str
    seed: int
    kind: str                 # FAILURE_ERROR | FAILURE_TIMEOUT | FAILURE_CRASH
    message: str
    attempts: int

    def as_dict(self) -> Dict[str, Any]:
        return {"name": self.name, "ref": self.ref, "seed": self.seed,
                "kind": self.kind, "message": self.message,
                "attempts": self.attempts}

    def __repr__(self) -> str:
        return (f"JobFailure({self.name!r}, {self.kind}, "
                f"attempts={self.attempts}, {self.message!r})")


@dataclass
class JobOutcome:
    """What happened to one submitted job, in its submission slot."""

    index: int
    job: Job
    key: str
    result: Any = None
    failure: Optional[JobFailure] = None
    cached: bool = False
    attempts: int = 0
    elapsed: float = 0.0
    extra: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.failure is None


__all__ = [
    "FAILURE_CRASH", "FAILURE_ERROR", "FAILURE_TIMEOUT", "Job",
    "JobFailure", "JobOutcome", "canonical_object", "func_ref", "job_key",
    "resolve_ref", "source_salt",
]

"""The one serialization protocol of the reproduction.

Every subsystem that ships structured objects across a process boundary
-- farm cache entries, campaign manifests, executor-backend wire frames,
fault plans inside job configs, snapshots inside warm-job configs --
historically grew its own ad-hoc ``to_dict``/``from_dict`` pair.  This
module promotes those pairs into a single *versioned* codec so every
payload speaks the same bytes:

- :func:`canonical_json` / :func:`json_roundtrip` -- the canonical byte
  form (sorted keys, tight separators, NaN rejected) that cache keys,
  aggregates and wire frames are built on;
- :func:`serde` -- class decorator registering a ``to_dict``/``from_dict``
  pair under a stable *tag* and integer *version*;
- :func:`dump` / :func:`load` -- envelope codec:
  ``{"$serde": tag, "$version": n, "data": obj.to_dict()}`` round-trips
  through any JSON channel back to the object, with a hard version
  check;
- :func:`dumps` / :func:`loads` -- the same, as canonical JSON text.

Registration is *lazy-loadable*: the registry maps each tag to the
class's durable ``module:qualname`` reference, so a fresh worker process
can decode an envelope without the defining module pre-imported.
"""

from __future__ import annotations

import json
from importlib import import_module
from typing import Any, Callable, Dict, Optional, Tuple, Type

SERDE_KEY = "$serde"
VERSION_KEY = "$version"
DATA_KEY = "data"


class SerdeError(ValueError):
    """A payload that cannot be encoded or decoded by the codec."""


def canonical_json(value: Any) -> str:
    """Serialize ``value`` to the repo's canonical JSON form.

    Equal values always yield equal bytes (sorted keys, no whitespace,
    ASCII only); non-finite floats are rejected rather than silently
    emitted as invalid JSON.  This is the byte-identity foundation:
    cache keys, failure records, campaign aggregates and backend wire
    frames all pass through here.
    """
    return json.dumps(value, sort_keys=True, separators=(",", ":"),
                      allow_nan=False, ensure_ascii=True)


def json_roundtrip(value: Any) -> Any:
    """Normalize a value to pure JSON types (tuples become lists, dict
    keys become strings), so a freshly computed result and its
    rehydrated twin are indistinguishable."""
    return json.loads(canonical_json(value))


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

# tag -> (version, "module:qualname").  The reference is resolved lazily
# so decoding an envelope never requires its class pre-imported, and the
# table below seeds the tags shipped by the repo itself (a class
# decorated with @serde re-registers itself identically on import).
_REGISTRY: Dict[str, Tuple[int, str]] = {
    "fault-plan": (1, "repro.faults.plan:FaultPlan"),
    "task-graph": (1, "repro.maps.taskgraph:TaskGraph"),
    "platform-spec": (1, "repro.maps.spec:PlatformSpec"),
    "execution-report": (1, "repro.hopes.runtime:ExecutionReport"),
    "snapshot": (1, "repro.snap.core:Snapshot"),
    "bias-knobs": (1, "repro.gen.firmware:BiasKnobs"),
    "manycore-config": (1, "repro.manycore.machine:ManyCoreConfig"),
}

_RESOLVED: Dict[str, Type[Any]] = {}


def serde(tag: str, version: int = 1) -> Callable[[Type[Any]], Type[Any]]:
    """Class decorator: register ``cls`` under ``tag`` at ``version``.

    The class must provide the classic pair -- ``to_dict(self) -> dict``
    and ``from_dict(cls, data) -> cls`` -- which the envelope codec
    wraps.  Re-registering the same tag with a different class or
    version is an error (tags are wire-stable names, not conveniences).
    """
    if not tag or not isinstance(tag, str):
        raise SerdeError(f"serde tag must be a non-empty string, got {tag!r}")
    if not isinstance(version, int) or version < 1:
        raise SerdeError(f"serde version must be an int >= 1, got {version!r}")

    def register(cls: Type[Any]) -> Type[Any]:
        if not callable(getattr(cls, "to_dict", None)) or \
                not callable(getattr(cls, "from_dict", None)):
            raise SerdeError(
                f"@serde({tag!r}) class {cls.__name__} must define "
                f"to_dict/from_dict")
        ref = f"{cls.__module__}:{cls.__qualname__}"
        known = _REGISTRY.get(tag)
        if known is not None and known != (version, ref):
            raise SerdeError(
                f"serde tag {tag!r} already registered as {known}, "
                f"cannot rebind to ({version}, {ref!r})")
        _REGISTRY[tag] = (version, ref)
        _RESOLVED[tag] = cls
        cls.__serde_tag__ = tag
        cls.__serde_version__ = version
        return cls

    return register


def serde_tag(obj: Any) -> str:
    """The registered tag of an object (or class); SerdeError if none."""
    tag = getattr(obj, "__serde_tag__", None)
    if tag is None:
        kind = obj if isinstance(obj, type) else type(obj)
        raise SerdeError(f"{kind.__name__} is not @serde-registered")
    return tag


def _resolve(tag: str) -> Type[Any]:
    cls = _RESOLVED.get(tag)
    if cls is not None:
        return cls
    entry = _REGISTRY.get(tag)
    if entry is None:
        raise SerdeError(f"unknown serde tag {tag!r} "
                         f"(known: {sorted(_REGISTRY)})")
    _version, ref = entry
    module_name, _, qualname = ref.partition(":")
    obj: Any = import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    _RESOLVED[tag] = obj
    return obj


# ---------------------------------------------------------------------------
# envelope codec
# ---------------------------------------------------------------------------

def dump(obj: Any) -> Dict[str, Any]:
    """Encode a registered object into its versioned JSON envelope."""
    tag = serde_tag(obj)
    version, _ref = _REGISTRY[tag]
    data = obj.to_dict()
    if not isinstance(data, dict):
        raise SerdeError(f"{type(obj).__name__}.to_dict() must return a "
                         f"dict, got {type(data).__name__}")
    return {SERDE_KEY: tag, VERSION_KEY: version, DATA_KEY: data}


def load(payload: Dict[str, Any]) -> Any:
    """Decode an envelope back into its object.

    The payload version must match the registered version; a mismatch
    is a hard :class:`SerdeError` -- wire payloads and cache entries
    must never be silently reinterpreted across schema changes.
    """
    if not isinstance(payload, dict) or SERDE_KEY not in payload:
        raise SerdeError(f"not a serde envelope: {payload!r}")
    tag = payload[SERDE_KEY]
    cls = _resolve(tag)
    version, _ref = _REGISTRY[tag]
    got = payload.get(VERSION_KEY)
    data = payload.get(DATA_KEY)
    if not isinstance(data, dict):
        raise SerdeError(f"serde envelope {tag!r} carries no data dict")
    if got != version:
        raise SerdeError(
            f"serde tag {tag!r}: payload version {got!r} != "
            f"registered version {version}")
    return cls.from_dict(data)


def dumps(obj: Any) -> str:
    """Encode a registered object as canonical JSON text."""
    return canonical_json(dump(obj))


def loads(text: str) -> Any:
    """Decode canonical JSON text produced by :func:`dumps`."""
    try:
        payload = json.loads(text)
    except ValueError as error:
        raise SerdeError(f"invalid serde JSON: {error}") from None
    return load(payload)


def is_envelope(payload: Any) -> bool:
    """True when ``payload`` looks like a serde envelope."""
    return isinstance(payload, dict) and SERDE_KEY in payload


__all__ = [
    "DATA_KEY", "SERDE_KEY", "SerdeError", "VERSION_KEY", "canonical_json",
    "dump", "dumps", "is_envelope", "json_roundtrip", "load", "loads",
    "serde", "serde_tag",
]

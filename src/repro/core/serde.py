"""The one serialization protocol of the reproduction: canonical JSON.

Every structured object that crosses a process boundary -- farm cache
entries, campaign manifests, executor-backend wire frames, fault plans
inside job configs, snapshots inside warm-job configs -- travels as the
plain dict of its class's own ``to_dict``/``from_dict`` pair, encoded
by :func:`canonical_json`:

- :func:`canonical_json` -- the canonical byte form (sorted keys, tight
  separators, NaN rejected) that cache keys, aggregates and wire frames
  are built on;
- :func:`json_roundtrip` -- normalizes a value to the pure JSON types
  it decodes back to.
"""

from __future__ import annotations

import json
from typing import Any


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


__all__ = ["canonical_json", "json_roundtrip"]

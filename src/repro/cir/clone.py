"""Deep-cloning of AST nodes with fresh node ids.

Partitioning (MAPS) and every Source Recoder transformation produce new
statements derived from existing ones; cloning keeps the original AST
intact and gives the copies fresh ``node_id`` values so analyses never
confuse them with their originals.

A MAPS pass clones about two thousand nodes, so each node class's field
names (minus ``node_id``) are looked up once and kept in a tuple rather
than read through :func:`dataclasses.fields` per node.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Tuple, TypeVar

from repro.cir.nodes import Node

N = TypeVar("N", bound=Node)

# Node class -> its field names minus node_id (regenerated by the
# default_factory on construction).
_FIELD_NAMES: Dict[type, Tuple[str, ...]] = {}


def clone(node: N) -> N:
    """Deep-copy an AST node; every copied node gets a fresh node_id."""
    if not isinstance(node, Node):
        raise TypeError(f"clone expects a Node, got {node!r}")
    cls = type(node)
    names = _FIELD_NAMES.get(cls)
    if names is None:
        names = _FIELD_NAMES[cls] = tuple(
            field.name for field in dataclasses.fields(cls)
            if field.name != "node_id")
    return cls(**{name: _clone_value(getattr(node, name)) for name in names})


def _clone_value(value: Any) -> Any:
    if isinstance(value, Node):
        return clone(value)
    if isinstance(value, list):
        return [_clone_value(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_clone_value(item) for item in value)
    if isinstance(value, dict):
        return {key: _clone_value(item) for key, item in value.items()}
    return value  # scalars, strings, Types (frozen) are shared


def clone_list(nodes: List[N]) -> List[N]:
    return [clone(node) for node in nodes]


__all__ = ["clone", "clone_list"]

"""The mini-C type system: scalars, fixed-size arrays, one-level pointers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple


class TypeError_(Exception):
    """Raised on a type violation (named with a trailing underscore to avoid
    shadowing the builtin)."""


@dataclass(frozen=True)
class Type:
    """Base class of mini-C types."""

    def is_scalar(self) -> bool:
        return isinstance(self, ScalarType)

    def is_array(self) -> bool:
        return isinstance(self, ArrayType)

    def is_pointer(self) -> bool:
        return isinstance(self, PointerType)

    def sizeof(self) -> int:
        """Size in abstract words (scalars are 1 word)."""
        raise NotImplementedError


@dataclass(frozen=True)
class ScalarType(Type):
    """``int``, ``float`` or ``void``."""

    name: str  # 'int' | 'float' | 'void'

    def sizeof(self) -> int:
        return 0 if self.name == "void" else 1

    def __str__(self) -> str:
        return self.name


INT = ScalarType("int")
FLOAT = ScalarType("float")
VOID = ScalarType("void")


@dataclass(frozen=True)
class ArrayType(Type):
    """Fixed-size (possibly multi-dimensional) array of a scalar element."""

    element: ScalarType
    dims: Tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.dims:
            raise TypeError_("array must have at least one dimension")
        if any(d <= 0 for d in self.dims):
            raise TypeError_(f"array dimensions must be positive: {self.dims}")

    def sizeof(self) -> int:
        total = self.element.sizeof()
        for dim in self.dims:
            total *= dim
        return total

    def inner(self) -> Type:
        """The type obtained by one level of indexing."""
        if len(self.dims) == 1:
            return self.element
        return ArrayType(self.element, self.dims[1:])

    def __str__(self) -> str:
        return str(self.element) + "".join(f"[{d}]" for d in self.dims)


@dataclass(frozen=True)
class PointerType(Type):
    """One-level pointer to a scalar (``int *`` / ``float *``).

    Deeper indirection is deliberately unsupported: the Source Recoder's
    pointer-recoding transformation (section VI) exists precisely to remove
    pointer expressions from models, and one level is enough to demonstrate
    it.
    """

    pointee: ScalarType

    def sizeof(self) -> int:
        return 1

    def __str__(self) -> str:
        return f"{self.pointee} *"


def scalar(name: str) -> ScalarType:
    """Look up a scalar type by keyword."""
    table = {"int": INT, "float": FLOAT, "void": VOID}
    if name not in table:
        raise TypeError_(f"unknown type {name!r}")
    return table[name]


__all__ = ["ArrayType", "FLOAT", "INT", "PointerType", "ScalarType", "Type",
           "TypeError_", "VOID", "scalar"]

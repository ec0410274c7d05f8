"""The Document Object: the text side of the recoder (Figure 3).

A :class:`Document` is the editable source text.  Every mutation is
logged as an :class:`EditOp` with its character cost, which feeds the
productivity model: manual recoding pays per character typed, while a
tool-applied transformation replaces whole regions at a fixed interaction
cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple


@dataclass
class EditOp:
    """One recorded document mutation."""

    kind: str          # 'insert' | 'delete' | 'replace' | 'regenerate'
    position: int      # character offset
    removed: str = ""
    inserted: str = ""
    by_tool: bool = False

    @property
    def chars_typed(self) -> int:
        """Characters a human would type for this edit (tool edits: 0)."""
        if self.by_tool:
            return 0
        return len(self.inserted) + (1 if self.removed else 0)


class Document:
    """Mutable source-text buffer with an edit log."""

    def __init__(self, text: str = "") -> None:
        self._text = text
        self.edits: List[EditOp] = []
        self.version = 0

    @property
    def text(self) -> str:
        return self._text

    def __len__(self) -> int:
        return len(self._text)

    @property
    def line_count(self) -> int:
        return self._text.count("\n") + (0 if self._text.endswith("\n")
                                         else 1 if self._text else 0)

    # ------------------------------------------------------------------
    def insert(self, position: int, text: str, by_tool: bool = False) -> None:
        self._check_span(position, position)
        self._text = self._text[:position] + text + self._text[position:]
        self.edits.append(EditOp("insert", position, inserted=text,
                                 by_tool=by_tool))
        self.version += 1

    def delete(self, start: int, end: int, by_tool: bool = False) -> str:
        self._check_span(start, end)
        removed = self._text[start:end]
        self._text = self._text[:start] + self._text[end:]
        self.edits.append(EditOp("delete", start, removed=removed,
                                 by_tool=by_tool))
        self.version += 1
        return removed

    def replace(self, start: int, end: int, text: str,
                by_tool: bool = False) -> None:
        self._check_span(start, end)
        removed = self._text[start:end]
        self._text = self._text[:start] + text + self._text[end:]
        self.edits.append(EditOp("replace", start, removed=removed,
                                 inserted=text, by_tool=by_tool))
        self.version += 1

    def set_text(self, text: str, by_tool: bool = True) -> None:
        """Wholesale regeneration (the Code Generator path of Figure 3)."""
        self.edits.append(EditOp("regenerate", 0, removed=self._text,
                                 inserted=text, by_tool=by_tool))
        self._text = text
        self.version += 1

    # ------------------------------------------------------------------
    def line_span(self, line_no: int) -> Tuple[int, int]:
        """(start, end) character offsets of a 1-based line."""
        lines = self._text.splitlines(keepends=True)
        if not 1 <= line_no <= len(lines):
            raise IndexError(f"line {line_no} out of range")
        start = sum(len(l) for l in lines[:line_no - 1])
        return start, start + len(lines[line_no - 1])

    def manual_chars_typed(self) -> int:
        return sum(edit.chars_typed for edit in self.edits)

    def _check_span(self, start: int, end: int) -> None:
        if not 0 <= start <= end <= len(self._text):
            raise IndexError(f"bad span [{start}:{end}] for document of "
                             f"length {len(self._text)}")


__all__ = ["Document", "EditOp"]

"""The recoder session: Document <-> AST synchronization (Figure 3).

The session holds both representations and keeps them consistent:

- a **manual edit** changes the document; Preprocessor+Parser re-derive
  the AST ("changes ... are applied to the AST on-the-fly");
- a **transformation** mutates the AST; the Code Generator re-derives the
  document ("a Code Generator synchronizes changes in the AST to the
  document object").

Every state change is undoable, transformations are validated by
re-running the program before/after (the designer can skip validation to
overrule the tools, per the paper's designer-in-control philosophy), and
the session accumulates the interaction statistics the productivity model
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional

from repro.cir.codegen import emit
from repro.cir.interp import run_program
from repro.cir.nodes import Program
from repro.cir.parser import ParseError, parse
from repro.recoder.document import Document
from repro.recoder.transforms.base import TransformError, TransformReport


class SyncError(Exception):
    """Raised when the document cannot be parsed back into an AST."""


@dataclass
class TransformInvocation:
    """Log entry: one designer interaction with the transformation tools."""

    name: str
    report: TransformReport
    overruled: bool = False


class RecoderSession:
    """One model, two synchronized representations, full undo."""

    def __init__(self, source: str, entry: str = "main",
                 validate_runs: bool = True,
                 run_args: Optional[List[Any]] = None,
                 externals: Optional[dict] = None) -> None:
        self.document = Document(source)
        try:
            self.ast: Program = parse(source)
        except ParseError as error:
            raise SyncError(f"initial source does not parse: {error}") \
                from error
        self.entry = entry
        self.validate_runs = validate_runs
        self.run_args = run_args or []
        self.externals = externals or {}
        self._undo_stack: List[str] = []
        self.invocations: List[TransformInvocation] = []
        self.manual_edits = 0

    # ------------------------------------------------------------------
    # document -> AST (Preprocessor + Parser path)
    # ------------------------------------------------------------------
    def edit_text(self, start: int, end: int, replacement: str) -> None:
        """A manual (human-typed) edit, applied to the AST on-the-fly."""
        self._undo_stack.append(self.document.text)
        self.document.replace(start, end, replacement, by_tool=False)
        self.manual_edits += 1
        self._reparse()

    def replace_line(self, line_no: int, new_line: str) -> None:
        start, end = self.document.line_span(line_no)
        self.edit_text(start, end, new_line if new_line.endswith("\n")
                       else new_line + "\n")

    def _reparse(self) -> None:
        try:
            self.ast = parse(self.document.text)
        except ParseError as error:
            self.document.set_text(self._undo_stack.pop(), by_tool=True)
            self.ast = parse(self.document.text)
            raise SyncError(f"edit rejected, document would not parse: "
                            f"{error}") from error

    # ------------------------------------------------------------------
    # AST -> document (Transformation tools + Code Generator path)
    # ------------------------------------------------------------------
    def apply(self, transform: Callable[..., TransformReport], *args,
              force: bool = False, **kwargs) -> TransformReport:
        """Invoke a transformation tool on the AST.

        With validation on, the program is interpreted before and after;
        a result mismatch rolls the transformation back unless ``force``
        (the designer overrules the analysis).  Transformations with
        warnings also require ``force`` -- the designer must concur."""
        before_text = self.document.text
        baseline = self._run() if self.validate_runs else None
        try:
            report = transform(self.ast, *args, **kwargs)
        except TransformError:
            self.ast = parse(before_text)  # discard partial mutation
            raise
        if report.warnings and not force:
            self.ast = parse(before_text)
            raise TransformError(
                f"{report.name} reported warnings (pass force=True to "
                f"overrule): {report.warnings}")
        regenerated = emit(self.ast)
        if self.validate_runs:
            after = self._run()
            if not self._same_outcome(baseline, after):
                if not force:
                    self.ast = parse(before_text)
                    raise TransformError(
                        f"{report.name} changed program behaviour "
                        f"({baseline} -> {after}); rolled back")
        self._undo_stack.append(before_text)
        self.document.set_text(regenerated, by_tool=True)
        self.invocations.append(TransformInvocation(report.name, report,
                                                    overruled=force))
        return report

    def _run(self):
        result = run_program(parse(emit(self.ast)), entry=self.entry,
                             args=list(self.run_args),
                             externals=dict(self.externals))
        return (result.return_value, tuple(result.output))

    @staticmethod
    def _same_outcome(before, after) -> bool:
        return before == after

    # ------------------------------------------------------------------
    def undo(self) -> None:
        if not self._undo_stack:
            raise IndexError("nothing to undo")
        text = self._undo_stack.pop()
        self.document.set_text(text, by_tool=True)
        self.ast = parse(text)
        if self.invocations:
            self.invocations.pop()

    @property
    def text(self) -> str:
        return self.document.text


__all__ = ["RecoderSession", "SyncError", "TransformInvocation"]

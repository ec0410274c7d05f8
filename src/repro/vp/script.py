"""Scriptable debug framework (section VII).

"CoWare Virtual Platforms provide a scriptable debug framework.  Using a
TCL based scripting language, the control and inspection of hardware and
software can be automated.  This scripting capability allows implementing
system level software assertions, without changing the software code."

The TCL stand-in is a small line-oriented command language::

    break 0 12                      ; breakpoint: core 0, pc 12
    watch write 0x64                ; bus watchpoint
    watch write 0x64 master=dma     ; only when the DMA writes
    watch signal timer0.irq posedge ; signal watchpoint
    assert mem(100) <= 20 :: counter must never exceed 20
    run 100000                      ; run with assertions checked each event
    print mem(100)

Assertion expressions may use ``mem(addr)``, ``reg(core, n)``,
``pc(core)``, ``sig(name)``, ``sem(i)``, ``halted(core)``, ``time()`` and
ordinary arithmetic/comparison operators.  Assertions are evaluated after
**every kernel event** while ``run`` executes -- they see the whole-system
state, and they never cost simulated time, so the asserted software runs
bit-identically with or without them.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional

from repro.vp.debugger import Assertion, Debugger, StopReason
from repro.vp.soc import SoC


class ScriptError(Exception):
    """Raised on a malformed script command."""


def _number(text: str) -> int:
    try:
        return int(text, 0)
    except ValueError:
        raise ScriptError(f"not a number: {text!r}") from None


class DebugScriptEngine:
    """Executes debug scripts against a SoC through the VP debugger."""

    def __init__(self, soc: SoC, debugger: Optional[Debugger] = None) -> None:
        self.soc = soc
        self.debugger = debugger or Debugger(soc)
        # The debugger evaluates the assertions while it runs.
        self.violations = self.debugger.violations
        self.printed: List[str] = []
        self.last_stop: Optional[StopReason] = None

    # ------------------------------------------------------------------
    # expression evaluation
    # ------------------------------------------------------------------
    def _namespace(self) -> Dict[str, Any]:
        soc = self.soc
        return {
            "__builtins__": {},
            "mem": lambda addr: soc.bus.peek(int(addr)),
            "reg": lambda core, n: soc.cores[int(core)].regs[int(n)],
            "pc": lambda core: soc.cores[int(core)].pc,
            "sig": lambda name: soc.signal(name).read(),
            "sem": lambda i: soc.semaphores.peek(int(i)),
            "halted": lambda core: int(soc.cores[int(core)].halted),
            "time": lambda: soc.sim.now,
            "abs": abs, "min": min, "max": max,
        }

    def eval(self, expression: str) -> Any:
        """Evaluate a debug expression against current (suspended) state."""
        try:
            return eval(compile(expression, "<debug-script>", "eval"),
                        self._namespace())
        except Exception as error:  # noqa: BLE001 - surfaced with context
            raise ScriptError(
                f"cannot evaluate {expression!r}: {error}") from error

    # ------------------------------------------------------------------
    # command execution
    # ------------------------------------------------------------------
    def execute(self, script: str) -> None:
        """Execute a whole script (one command per line)."""
        for line_no, raw in enumerate(script.splitlines(), start=1):
            line = raw.split(";")[0].strip()
            if not line:
                continue
            try:
                self.command(line)
            except ScriptError as error:
                raise ScriptError(f"line {line_no}: {error}") from error

    def command(self, line: str) -> Any:
        parts = line.split()
        verb = parts[0].lower()
        if verb == "break":
            if len(parts) != 3:
                raise ScriptError("usage: break <core> <pc>")
            return self.debugger.add_breakpoint(self._core(parts[1]),
                                                _number(parts[2]))
        if verb == "watch":
            return self._cmd_watch(parts[1:])
        if verb == "assert":
            return self._cmd_assert(line[len("assert"):].strip(),
                                    stop_on_failure=False)
        if verb == "expect":
            # Like assert but stops the run at the first violation.
            return self._cmd_assert(line[len("expect"):].strip(),
                                    stop_on_failure=True)
        if verb == "run":
            budget = _number(parts[1]) if len(parts) > 1 else 1_000_000
            self.last_stop = self.debugger.run(max_events=budget)
            return self.last_stop
        if verb == "step":
            if len(parts) != 2:
                raise ScriptError("usage: step <core>")
            return self.debugger.step_instruction(self._core(parts[1]))
        if verb == "print":
            value = self.eval(line[len("print"):].strip())
            self.printed.append(f"{line[len('print'):].strip()} = {value}")
            return value
        raise ScriptError(f"unknown command {verb!r}")

    def _core(self, text: str) -> int:
        core = _number(text)
        if not 0 <= core < len(self.soc.cores):
            raise ScriptError(f"no core {core}")
        return core

    def _cmd_watch(self, args: List[str]):
        if not args:
            raise ScriptError("usage: watch <write|read|access|signal> ...")
        kind = args[0].lower()
        if kind == "signal":
            if len(args) < 2:
                raise ScriptError("usage: watch signal <name> [edge]")
            edge = args[2] if len(args) > 2 else "change"
            try:
                return self.debugger.add_signal_watchpoint(args[1], edge)
            except (KeyError, ValueError) as error:
                raise ScriptError(f"bad signal watchpoint: {error}") \
                    from error
        if kind in ("write", "read", "access"):
            if len(args) < 2:
                raise ScriptError(f"usage: watch {kind} <addr> [master=<m>]")
            master = None
            for extra in args[2:]:
                if extra.startswith("master="):
                    master = extra.split("=", 1)[1]
                else:
                    raise ScriptError(f"unknown option {extra!r}")
            return self.debugger.add_watchpoint(kind, _number(args[1]),
                                                master=master)
        raise ScriptError(f"unknown watch kind {kind!r}")

    def _cmd_assert(self, rest: str, stop_on_failure: bool) -> Assertion:
        if "::" in rest:
            expression, message = (part.strip()
                                   for part in rest.split("::", 1))
        else:
            expression, message = rest.strip(), rest.strip()
        if not expression:
            raise ScriptError("empty assertion")
        try:
            compiled = compile(expression, "<assertion>", "eval")
        except (SyntaxError, ValueError) as error:
            raise ScriptError(f"bad assertion {expression!r}: {error}") \
                from error
        namespace = self._namespace()
        assertion = Assertion(expression, message,
                              lambda: eval(compiled, dict(namespace)),
                              stop_on_failure)
        self.debugger.assertions.append(assertion)
        return assertion


__all__ = ["DebugScriptEngine", "ScriptError"]

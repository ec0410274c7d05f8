"""Data-restructuring transformations: shared-access analysis, vector
splitting, localization, and channel insertion (section VI).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.cir.analysis.dataflow import defs_of, uses_of
from repro.cir.analysis.dependence import chunk_refusal, counted_loop
from repro.cir.clone import clone
from repro.cir.codegen import emit_expression
from repro.cir.nodes import (
    ArrayIndex, Assign, BinOp, Block, Call, Decl, ExprStmt, For,
    FuncDef, Ident, IntLit, Program, Stmt,
)
from repro.cir.typesys import ArrayType, INT, ScalarType
from repro.recoder.transforms.base import (
    TransformError, TransformReport, find_loop, top_level_index,
)


# ---------------------------------------------------------------------------
# shared-data access analysis
# ---------------------------------------------------------------------------

@dataclass
class SharedAccessReport:
    """Which names are shared between which top-level statements."""

    shared: Dict[str, List[int]] = field(default_factory=dict)
    # name -> (writer statement lines, reader statement lines)
    writers: Dict[str, List[int]] = field(default_factory=dict)
    readers: Dict[str, List[int]] = field(default_factory=dict)


def analyze_shared_accesses(program: Program,
                            func_name: str) -> SharedAccessReport:
    """"analyze shared data accesses": which variables couple the
    top-level statements (= candidate partitions) of a function."""
    func = program.function(func_name)
    report = SharedAccessReport()
    for stmt in func.body.stmts:
        defs, uses = defs_of([stmt]), uses_of([stmt])
        for name in defs:
            report.writers.setdefault(name, []).append(stmt.line)
        for name in uses:
            report.readers.setdefault(name, []).append(stmt.line)
        for name in defs | uses:
            lines = report.shared.setdefault(name, [])
            if stmt.line not in lines:
                lines.append(stmt.line)
    report.shared = {name: lines for name, lines in report.shared.items()
                     if len(lines) > 1}
    return report


# ---------------------------------------------------------------------------
# vector splitting
# ---------------------------------------------------------------------------

def _resolve_loops(func: FuncDef, selectors: List) -> List[For]:
    """Resolve loop selectors (source lines or For nodes) to loops.

    Repeated lines select successive loops at that line -- loop-split
    pieces share their ancestor's source line until the document is
    regenerated."""
    from collections import deque
    by_line: Dict[int, deque] = {}
    for node in func.body.walk():
        if isinstance(node, For):
            by_line.setdefault(node.line, deque()).append(node)
    loops: List[For] = []
    for selector in selectors:
        if isinstance(selector, For):
            loops.append(selector)
            continue
        queue = by_line.get(selector)
        if not queue:
            raise TransformError(f"no (further) for-loop at line {selector}")
        loops.append(queue.popleft())
    return loops


def split_shared_vector(program: Program, func_name: str, array: str,
                        loop_lines: List[int],
                        copy_back: bool = True) -> TransformReport:
    """"split vectors of shared data": privatize ``array`` per partition.

    Each loop in ``loop_lines`` must be one
    :func:`~repro.cir.analysis.dependence.chunk_refusal` accepts, with
    literal bounds, accessing ``array`` only at index expressions equal
    to the loop variable.  The transformation declares one private
    sub-array per partition, rewrites indices to partition-local
    offsets, and (with ``copy_back``) gathers the pieces back so
    downstream readers are unaffected.  A partition that writes the
    array without reading it is not copied in, so one that writes only
    some of its elements gathers zeros back over the others."""
    func = program.function(func_name)
    element = _array_element_type(program, func, array)
    loops = _resolve_loops(func, loop_lines)
    ranges: List[Tuple[int, int]] = []
    for loop in loops:
        why = chunk_refusal(loop)
        if why is not None:
            raise TransformError(f"vector split needs chunkable loops: {why}")
        header = counted_loop(loop)
        lower, upper = header.lower, header.upper
        if not isinstance(lower, IntLit) or not isinstance(upper, IntLit):
            raise TransformError("vector split needs literal bounds")
        _check_only_loop_var_indexing(loop, array, header.var)
        ranges.append((lower.value, upper.value))

    # Which partitions read / write the array (decides copy-in/gather).
    modes: List[Tuple[bool, bool]] = []
    for loop in loops:
        reads = writes = False
        for node in loop.body.walk():
            if isinstance(node, ArrayIndex):
                root = node.root_ident()
                if root is not None and root.name == array:
                    if _is_store_target(loop.body, node):
                        writes = True
                    else:
                        reads = True
            if isinstance(node, Assign) and node.op and \
                    isinstance(node.target, ArrayIndex):
                root = node.target.root_ident()
                if root is not None and root.name == array:
                    reads = True  # compound assignment reads the target
        modes.append((reads, writes))

    decls: List[Stmt] = []
    copy_ins: List[Stmt] = []
    changed = 0
    for index, (loop, (low, high)) in enumerate(zip(loops, ranges)):
        private = f"{array}__{index}"
        size = max(1, high - low)
        decls.append(Decl(type=ArrayType(element, (size,)), name=private))
        reads, _writes = modes[index]
        if reads:
            copy_ins.extend(_copy_loop(f"__s{index}_{array}", array,
                                       private, low, high, into_private=True))
        changed += _rewrite_array_accesses(loop, array, private, low)

    first_index = func.body.stmts.index(loops[0])
    func.body.stmts[first_index:first_index] = decls + copy_ins

    if copy_back and any(writes for _reads, writes in modes):
        gather: List[Stmt] = []
        for index, ((low, high), (_reads, writes)) in enumerate(
                zip(ranges, modes)):
            if not writes:
                continue
            private = f"{array}__{index}"
            gather.extend(_copy_loop(f"__g{index}_{array}", array, private,
                                     low, high, into_private=False))
        last_loop_index = func.body.stmts.index(loops[-1])
        func.body.stmts[last_loop_index + 1:last_loop_index + 1] = gather

    return TransformReport(
        "split_shared_vector",
        f"array {array!r} split into {len(loops)} private vectors"
        + (" with gather-back" if copy_back else ""),
        nodes_changed=changed)


def _copy_loop(counter: str, array: str, private: str, low: int, high: int,
               into_private: bool) -> List[Stmt]:
    """``for (c = low; c < high; c++) dst[...] = src[...];``"""
    shared = ArrayIndex(base=Ident(name=array), index=Ident(name=counter))
    local = ArrayIndex(base=Ident(name=private),
                       index=BinOp(op="-", left=Ident(name=counter),
                                   right=IntLit(value=low)))
    target, value = (local, shared) if into_private else (shared, local)
    body = Block(stmts=[Assign(target=target, value=value)])
    return [
        Decl(type=INT, name=counter),
        For(init=Assign(target=Ident(name=counter), value=IntLit(value=low)),
            test=BinOp(op="<", left=Ident(name=counter),
                       right=IntLit(value=high)),
            step=Assign(target=Ident(name=counter), value=IntLit(value=1),
                        op="+"),
            body=body),
    ]


def _array_element_type(program: Program, func: FuncDef,
                        array: str) -> ScalarType:
    for decl in program.globals:
        if decl.name == array and isinstance(decl.type, ArrayType):
            return decl.type.element
    for node in func.body.walk():
        if isinstance(node, Decl) and node.name == array and \
                isinstance(node.type, ArrayType):
            return node.type.element
    raise TransformError(f"{array!r} is not a declared array")


def _check_only_loop_var_indexing(loop: For, array: str, var: str) -> None:
    for node in loop.body.walk():
        if isinstance(node, ArrayIndex):
            root = node.root_ident()
            if root is not None and root.name == array:
                index = node.index
                if not (isinstance(index, Ident) and index.name == var):
                    raise TransformError(
                        f"access {array}[{emit_expression(index)}] is not "
                        f"indexed by the loop variable {var!r}")


def _rewrite_array_accesses(loop: For, array: str, private: str,
                            low: int) -> int:
    changed = 0
    for node in loop.body.walk():
        if isinstance(node, ArrayIndex):
            root = node.root_ident()
            if root is not None and root.name == array:
                root.name = private
                if low != 0:
                    node.index = BinOp(op="-", left=node.index,
                                       right=IntLit(value=low))
                changed += 1
    return changed


# ---------------------------------------------------------------------------
# localization (scalarization of repeated array reads)
# ---------------------------------------------------------------------------

def localize_accesses(program: Program, func_name: str,
                      line: int) -> TransformReport:
    """"localize variable accesses": hoist repeated reads of the same
    array element in a loop body into a local temporary.

    Applicable when the array is not written anywhere in the loop body
    (otherwise a read after the write would see a stale local)."""
    func = program.function(func_name)
    loop = find_loop(func, line)
    written = defs_of(loop.body.stmts)

    # Count reads per (array, rendered index) pair.
    reads: Dict[Tuple[str, str], List[ArrayIndex]] = {}
    for stmt in loop.body.stmts:
        for node in stmt.walk():
            if isinstance(node, ArrayIndex):
                root = node.root_ident()
                if root is None or root.name in written:
                    continue
                if _is_store_target(loop.body, node):
                    continue
                key = (root.name, emit_expression(node))
                reads.setdefault(key, []).append(node)

    hoisted = 0
    new_decls: List[Stmt] = []
    replacements: Dict[int, str] = {}
    for (array, rendered), nodes in sorted(reads.items()):
        if len(nodes) < 2:
            continue
        temp = f"__loc{hoisted}_{array}"
        element = _array_element_type(program, func, array)
        new_decls.append(Decl(type=element, name=temp,
                              init=clone(nodes[0])))
        for node in nodes:
            replacements[node.node_id] = temp
        hoisted += 1
    if not hoisted:
        return TransformReport("localize_accesses",
                               "nothing to localize", nodes_changed=0)
    _replace_nodes(loop.body, replacements)
    loop.body.stmts[0:0] = new_decls
    return TransformReport(
        "localize_accesses",
        f"hoisted {hoisted} repeated array reads into locals",
        nodes_changed=len(replacements))


def _is_store_target(block: Block, node: ArrayIndex) -> bool:
    for child in block.walk():
        if isinstance(child, Assign) and child.target is node:
            return True
    return False


def _replace_nodes(block: Block, replacements: Dict[int, str]) -> None:
    """Replace ArrayIndex nodes (by id) with Ident temps, in place."""
    import dataclasses

    def rewrite(node):
        for field_info in dataclasses.fields(node):
            value = getattr(node, field_info.name)
            if isinstance(value, list):
                for i, item in enumerate(value):
                    if hasattr(item, "node_id") and \
                            item.node_id in replacements:
                        value[i] = Ident(name=replacements[item.node_id])
                    elif hasattr(item, "walk"):
                        rewrite(item)
            elif hasattr(value, "node_id") and \
                    value.node_id in replacements:
                setattr(node, field_info.name,
                        Ident(name=replacements[value.node_id]))
            elif hasattr(value, "walk"):
                rewrite(value)

    rewrite(block)


# ---------------------------------------------------------------------------
# channel insertion
# ---------------------------------------------------------------------------

def insert_channel_sync(program: Program, func_name: str, var: str,
                        producer_line: int, consumer_line: int,
                        channel_id: int = 0) -> TransformReport:
    """"synchronize accesses to shared data by inserting communication
    channels": the scalar ``var`` flowing from the producer statement to
    the consumer statement is routed through channel ``channel_id``.

    After the transformation the producer partition ends with
    ``ch_write(id, var)`` and the consumer partition begins with
    ``var = ch_read(id)`` -- the code shape a partitioning flow needs
    before the two sides can live on different cores.  With FIFO channel
    semantics this is semantics-preserving for single-writer scalars."""
    func = program.function(func_name)
    producer_index = top_level_index(func, producer_line)
    consumer_index = top_level_index(func, consumer_line)
    if producer_index >= consumer_index:
        raise TransformError("producer must precede consumer")
    if var not in defs_of([func.body.stmts[producer_index]]):
        raise TransformError(
            f"{var!r} is not defined by the statement at line "
            f"{producer_line}")

    send = ExprStmt(expr=Call(name="ch_write",
                              args=[IntLit(value=channel_id),
                                    Ident(name=var)]))
    receive = Assign(target=Ident(name=var),
                     value=Call(name="ch_read",
                                args=[IntLit(value=channel_id)]))
    func.body.stmts.insert(consumer_index, receive)
    func.body.stmts.insert(producer_index + 1, send)
    return TransformReport(
        "insert_channel_sync",
        f"{var!r} now flows through channel {channel_id} from line "
        f"{producer_line} to line {consumer_line}",
        nodes_changed=2)


def insert_array_channel_sync(program: Program, func_name: str, array: str,
                              producer_line: int, consumer_line: int,
                              channel_id: int = 0) -> TransformReport:
    """Route a whole array through a channel between two partitions.

    This is the array-flavoured counterpart of
    :func:`insert_channel_sync`, completing the paper's "expose pipelined
    parallelism" chain: after loop fission distributes a loop into a
    producer and a consumer loop over a shared array, this transformation
    decouples them -- the producer ends with ``ch_send_arr(id, A)`` and
    the consumer begins with ``ch_recv_arr(id, A)``, after which the two
    loops can live on different cores with a FIFO between them.

    The runtime primitives have copy semantics (send snapshots the array,
    receive overwrites it), so with FIFO externals the transformation is
    semantics-preserving for single-producer arrays."""
    func = program.function(func_name)
    producer_index = top_level_index(func, producer_line)
    consumer_index = top_level_index(func, consumer_line)
    if producer_index >= consumer_index:
        raise TransformError("producer must precede consumer")
    _array_element_type(program, func, array)  # validates it is an array
    if array not in defs_of([func.body.stmts[producer_index]]):
        raise TransformError(
            f"{array!r} is not written by the statement at line "
            f"{producer_line}")
    send = ExprStmt(expr=Call(name="ch_send_arr",
                              args=[IntLit(value=channel_id),
                                    Ident(name=array)]))
    receive = ExprStmt(expr=Call(name="ch_recv_arr",
                                 args=[IntLit(value=channel_id),
                                       Ident(name=array)]))
    func.body.stmts.insert(consumer_index, receive)
    func.body.stmts.insert(producer_index + 1, send)
    return TransformReport(
        "insert_array_channel_sync",
        f"array {array!r} now flows through channel {channel_id} from "
        f"line {producer_line} to line {consumer_line}",
        nodes_changed=2)


def make_array_channel_externals() -> Dict[str, object]:
    """Interpreter externals implementing the array-channel runtime.

    ``ch_send_arr(id, A)`` snapshots A's storage into FIFO ``id``;
    ``ch_recv_arr(id, A)`` pops a snapshot and overwrites A in place.
    """
    queues: Dict[int, List[List[int]]] = {}

    def ch_send_arr(channel_id, array_value):
        queues.setdefault(int(channel_id), []).append(
            list(array_value.storage))
        return 0

    def ch_recv_arr(channel_id, array_value):
        snapshot = queues[int(channel_id)].pop(0)
        array_value.storage[:] = snapshot
        return 0

    return {"ch_send_arr": ch_send_arr, "ch_recv_arr": ch_recv_arr}


__all__ = ["SharedAccessReport", "analyze_shared_accesses",
           "insert_array_channel_sync", "insert_channel_sync",
           "localize_accesses", "make_array_channel_externals",
           "split_shared_vector"]

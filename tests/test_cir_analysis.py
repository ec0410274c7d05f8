"""Tests for CFG construction, dataflow analyses, dependence tests, cost."""

import pytest

from repro.cir import parse
from repro.cir.analysis import (
    analyze_dataflow, analyze_loop, build_cfg, estimate_cost,
    estimate_function_cost,
)
from repro.cir.analysis.cost import CostWeights
from repro.cir.analysis.dependence import (
    LoopClass, affine_of, collect_array_accesses, find_loops,
)
from repro.cir.clone import clone
from repro.cir.nodes import For
from repro.cir.parser import parse_expression
from repro.cir.symbols import build_symbols
from repro.cir.typesys import TypeError_


def main_func(source):
    return parse(source).function("main")


class TestCFG:
    def test_straight_line(self):
        func = main_func("int main() { int a; a = 1; a = 2; return a; }")
        cfg = build_cfg(func)
        stmt_nodes = [n for n in cfg.nodes.values() if n.kind == "stmt"]
        assert len(stmt_nodes) == 4  # decl + 2 assigns + return
        assert cfg.reachable() >= {n.nid for n in stmt_nodes}

    def test_if_creates_two_paths(self):
        func = main_func("""
        int main() { int x; if (x) { x = 1; } else { x = 2; } return x; }""")
        cfg = build_cfg(func)
        branch = [n for n in cfg.nodes.values() if n.kind == "branch"][0]
        assert len(branch.succs) == 2

    def test_while_back_edge(self):
        func = main_func("""
        int main() { int i; i = 0; while (i < 3) { i = i + 1; } return i; }""")
        cfg = build_cfg(func)
        branch = [n for n in cfg.nodes.values() if n.kind == "branch"][0]
        body = [cfg.node(s) for s in branch.succs
                if cfg.node(s).kind == "stmt" and
                cfg.node(s).label == "Assign"]
        assert body and branch.nid in body[0].succs  # back edge

    def test_break_exits_loop(self):
        func = main_func("""
        int main() { int i;
          for (i = 0; i < 10; i++) { if (i == 2) { break; } }
          return i; }""")
        cfg = build_cfg(func)
        breaks = [n for n in cfg.nodes.values() if n.label == "Break"]
        assert len(breaks) == 1
        # Break's successor must not be the loop branch.
        for_branch = [n for n in cfg.nodes.values() if n.label == "for"][0]
        assert for_branch.nid not in breaks[0].succs

    def test_return_connects_to_exit(self):
        func = main_func("int main() { return 1; }")
        cfg = build_cfg(func)
        ret = [n for n in cfg.nodes.values() if n.label == "Return"][0]
        assert cfg.exit.nid in ret.succs

    def test_unreachable_after_return_dropped(self):
        func = main_func("int main() { return 1; int x; x = 2; return x; }")
        cfg = build_cfg(func)
        # Only the first return should be reachable.
        reachable = cfg.reachable()
        returns = [n for n in cfg.nodes.values() if n.label == "Return"
                   and n.nid in reachable]
        assert len(returns) == 1


class TestDataflow:
    def test_reaching_definitions(self):
        func = main_func("""
        int main() { int x; x = 1; x = 2; return x; }""")
        cfg = build_cfg(func)
        result = analyze_dataflow(cfg)
        ret = [n for n in cfg.nodes.values() if n.label == "Return"][0]
        defs = result.def_use[(ret.nid, "x")]
        # Only the second assignment reaches the return.
        labels = {cfg.node(d).stmt.value.value for d in defs
                  if cfg.node(d).label == "Assign"}
        assert labels == {2}

    def test_branch_merges_definitions(self):
        func = main_func("""
        int main() { int x; if (x) { x = 1; } else { x = 2; } return x; }""")
        cfg = build_cfg(func)
        result = analyze_dataflow(cfg)
        ret = [n for n in cfg.nodes.values() if n.label == "Return"][0]
        defs = result.def_use[(ret.nid, "x")]
        assign_values = {cfg.node(d).stmt.value.value for d in defs
                         if cfg.node(d).label == "Assign"}
        assert assign_values == {1, 2}

    def test_liveness(self):
        func = main_func("""
        int main() { int a; int b; a = 1; b = 2; return a; }""")
        cfg = build_cfg(func)
        result = analyze_dataflow(cfg)
        assign_a = [n for n in cfg.nodes.values()
                    if n.label == "Assign" and
                    n.stmt.target.name == "a"][0]
        assert "a" in result.live_out[assign_a.nid]
        assign_b = [n for n in cfg.nodes.values()
                    if n.label == "Assign" and
                    n.stmt.target.name == "b"][0]
        assert "b" not in result.live_out[assign_b.nid]

    def test_array_writes_are_weak(self):
        func = main_func("""
        int main() { int a[4]; int i; a[0] = 1; a[1] = 2; return a[i]; }""")
        cfg = build_cfg(func)
        result = analyze_dataflow(cfg)
        ret = [n for n in cfg.nodes.values() if n.label == "Return"][0]
        defs = result.def_use[(ret.nid, "a")]
        assert len(defs) >= 2  # both writes may reach


class TestDependence:
    def _loop(self, body, pre="int a[100]; int b[100]; int s;"):
        source = f"""{pre}
        int main() {{ int i;
          for (i = 1; i < 99; i++) {{ {body} }}
          return 0; }}"""
        func = parse(source).function("main")
        return find_loops(func.body)[0]

    def test_doall(self):
        info = analyze_loop(self._loop("a[i] = b[i] + 1;"))
        assert info.classification == LoopClass.DOALL

    def test_reduction(self):
        info = analyze_loop(self._loop("s = s + a[i];"))
        assert info.classification == LoopClass.REDUCTION
        assert info.reductions == {"s": "+"}

    def test_compound_reduction(self):
        info = analyze_loop(self._loop("s += a[i];"))
        assert info.classification == LoopClass.REDUCTION

    def test_flow_dependence_sequential(self):
        info = analyze_loop(self._loop("a[i] = a[i-1] + 1;"))
        assert info.classification == LoopClass.SEQUENTIAL
        carried = [d for d in info.dependences if d.loop_carried]
        assert carried and carried[0].distance == 1

    def test_anti_dependence_detected(self):
        info = analyze_loop(self._loop("a[i] = a[i+1];"))
        assert info.classification == LoopClass.SEQUENTIAL

    def test_same_index_write_read_is_fine(self):
        info = analyze_loop(self._loop("a[i] = a[i] * 2;"))
        assert info.classification == LoopClass.DOALL

    def test_strided_disjoint_proven_independent(self):
        info = analyze_loop(self._loop("a[2*i] = a[2*i+1];"))
        assert info.classification == LoopClass.DOALL

    def test_scalar_carried(self):
        info = analyze_loop(self._loop("s = a[i] + s * 2;"))
        assert info.classification == LoopClass.SEQUENTIAL

    def test_private_scalar_ok(self):
        info = analyze_loop(self._loop("int t; t = a[i]; b[i] = t * t;"))
        assert info.classification == LoopClass.DOALL
        assert "t" in info.private_scalars

    def test_impure_call_blocks(self):
        source = """
        int g;
        void touch() { g = 1; }
        int a[10];
        int main() { int i;
          for (i = 0; i < 10; i++) { touch(); a[i] = i; }
          return 0; }"""
        func = parse(source).function("main")
        loop = find_loops(func.body)[0]
        info = analyze_loop(loop)
        assert info.classification == LoopClass.SEQUENTIAL

    def test_pure_intrinsic_allowed(self):
        info = analyze_loop(self._loop("b[i] = abs(a[i]);"))
        assert info.classification == LoopClass.DOALL

    def test_loop_var_write_blocks(self):
        info = analyze_loop(self._loop("a[i] = 0; i = i + a[i];"))
        assert info.classification == LoopClass.SEQUENTIAL

    def test_affine_extraction(self):
        aff = affine_of(parse_expression("3*i + n - 2"), "i", {"n"})
        assert aff is not None
        assert aff.coeff == 3 and aff.const == -2
        assert aff.symbols == (("n", 1),)
        assert affine_of(parse_expression("i * i"), "i", set()) is None

    def test_collect_accesses(self):
        loop = self._loop("a[i] = b[i] + a[i-1];")
        accesses = collect_array_accesses(loop.body)
        writes = [a for a in accesses if a.is_write]
        reads = [a for a in accesses if not a.is_write]
        assert len(writes) == 1 and len(reads) == 2


class TestCost:
    def test_loop_scaled_by_trip_count(self):
        func10 = main_func("""int main() { int i; int s; s = 0;
            for (i = 0; i < 10; i++) { s += i; } return s; }""")
        func100 = main_func("""int main() { int i; int s; s = 0;
            for (i = 0; i < 100; i++) { s += i; } return s; }""")
        assert estimate_function_cost(func100).total > \
            estimate_function_cost(func10).total * 5

    def test_pe_class_weights_differ(self):
        func = main_func("""int main() { int i; int s; s = 0;
            for (i = 0; i < 64; i++) { s += i * i; } return s; }""")
        risc = estimate_function_cost(func, CostWeights.for_pe_class("risc"))
        dsp = estimate_function_cost(func, CostWeights.for_pe_class("dsp"))
        assert risc.total != dsp.total

    def test_callee_cost_included(self):
        source = """
        int heavy(int n) { int i; int s; s = 0;
          for (i = 0; i < 50; i++) { s += i; } return s; }
        int main() { return heavy(1); }"""
        program = parse(source)
        with_program = estimate_function_cost(program.function("main"),
                                              program=program)
        without = estimate_function_cost(program.function("main"))
        assert with_program.total > without.total


class TestSymbolsAndClone:
    def test_binding_and_undeclared(self):
        program = parse("int g; int main() { int x; x = g; return x; }")
        table = build_symbols(program)
        assert table.globals.lookup("g").kind == "global"
        with pytest.raises(TypeError_):
            build_symbols(parse("int main() { return zz; }"))

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(TypeError_):
            build_symbols(parse("int main() { int x; int x; return 0; }"))

    def test_clone_gets_fresh_ids(self):
        func = main_func("int main() { return 1 + 2; }")
        copy = clone(func)
        original_ids = {n.node_id for n in func.walk()}
        copy_ids = {n.node_id for n in copy.walk()}
        assert not original_ids & copy_ids

    def test_clone_is_deep(self):
        func = main_func("int main() { int a[4]; a[0] = 1; return a[0]; }")
        copy = clone(func)
        copy.body.stmts[1].value.value = 42
        assert func.body.stmts[1].value.value == 1

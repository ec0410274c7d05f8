"""Tests for the Source Recoder: document, sync engine, transformations,
productivity model.  Transformation tests are differential: program
behaviour before == after."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.cir import parse, run_program
from repro.cir.analysis.dependence import LoopClass, analyze_loop, find_loops
from repro.recoder import (
    Document, RecoderSession, SyncError, TransformError,
    analyze_shared_accesses, insert_channel_sync, localize_accesses,
    manual_effort_chars, productivity_gain, prune_control, recode_pointers,
    split_loop, split_loop_fission, split_shared_vector,
)


def behaviour(program, entry="main", externals=None):
    result = run_program(program, entry=entry, externals=externals)
    return result.return_value, tuple(result.output)


class TestDocument:
    def test_insert_delete_replace(self):
        doc = Document("hello world")
        doc.insert(5, ",")
        assert doc.text == "hello, world"
        doc.delete(0, 5)
        assert doc.text == ", world"
        doc.replace(0, 1, "HI")
        assert doc.text == "HI world"
        assert len(doc.edits) == 3

    def test_chars_typed_counts_manual_only(self):
        doc = Document("abc")
        doc.insert(0, "xy", by_tool=False)
        doc.set_text("regenerated", by_tool=True)
        assert doc.manual_chars_typed() == 2

    def test_line_span(self):
        doc = Document("one\ntwo\nthree\n")
        start, end = doc.line_span(2)
        assert doc.text[start:end] == "two\n"
        with pytest.raises(IndexError):
            doc.line_span(9)

    def test_bad_span_rejected(self):
        with pytest.raises(IndexError):
            Document("ab").delete(1, 5)


class TestSession:
    SRC = "int main() {\n    int x;\n    x = 5;\n    return x;\n}\n"

    def test_manual_edit_reparses(self):
        session = RecoderSession(self.SRC)
        session.replace_line(3, "    x = 42;")
        assert behaviour(session.ast) == (42, ())
        assert session.manual_edits == 1

    def test_bad_edit_rolled_back(self):
        session = RecoderSession(self.SRC)
        with pytest.raises(SyncError):
            session.replace_line(3, "    x = = 42;")
        assert behaviour(session.ast) == (5, ())  # untouched

    def test_undo(self):
        session = RecoderSession(self.SRC)
        session.replace_line(3, "    x = 42;")
        session.undo()
        assert session.text == self.SRC
        assert behaviour(session.ast) == (5, ())

    def test_transform_regenerates_document(self):
        source = ("int A[8];\nint main() {\n    int i;\n"
                  "    for (i = 0; i < 8; i++) { A[i] = i; }\n"
                  "    return A[7];\n}\n")
        session = RecoderSession(source)
        session.apply(split_loop, "main", 4, 2)
        assert session.text.count("for (") == 2
        assert behaviour(session.ast) == (7, ())

    def test_behaviour_change_rolled_back(self):
        def evil(program, func_name):
            func = program.function(func_name)
            func.body.stmts.pop(1)  # delete the assignment
            from repro.recoder.transforms.base import TransformReport
            return TransformReport("evil", "broke it")

        session = RecoderSession(self.SRC)
        with pytest.raises(TransformError, match="changed program"):
            session.apply(evil, "main")
        assert behaviour(session.ast) == (5, ())

    def test_designer_can_overrule(self):
        def evil(program, func_name):
            func = program.function(func_name)
            func.body.stmts[1].value.value = 99
            from repro.recoder.transforms.base import TransformReport
            return TransformReport("evil", "changed behaviour")

        session = RecoderSession(self.SRC)
        session.apply(evil, "main", force=True)
        assert behaviour(session.ast) == (99, ())
        assert session.invocations[-1].overruled


KERNEL = """
int A[60];
int B[60];
int main() {
  int i;
  int s;
  s = 0;
  for (i = 0; i < 60; i++) { A[i] = i * 7 % 11; }
  for (i = 0; i < 60; i++) { B[i] = A[i] + A[i] * 3; }
  for (i = 0; i < 60; i++) { s = s + B[i]; }
  return s;
}
"""


class TestTransformations:
    def test_split_loop_preserves(self):
        program = parse(KERNEL)
        before = behaviour(program)
        split_loop(program, "main", 8, 3)
        assert behaviour(program) == before

    def test_split_loop_non_literal_bounds_rejected(self):
        source = """
        int A[8];
        int main(int n) { int i;
          for (i = 0; i < n; i++) { A[i] = i; } return 0; }
        """
        with pytest.raises(TransformError, match="literal"):
            split_loop(parse(source), "main", 4, 2)

    def test_split_loop_fission_preserves_when_legal(self):
        source = """
        int A[20];
        int B[20];
        int main() { int i; int s; s = 0;
          for (i = 0; i < 20; i++) {
            A[i] = i * 2;
            B[i] = A[i] + 1;
          }
          for (i = 0; i < 20; i++) { s += B[i]; }
          return s; }
        """
        program = parse(source)
        before = behaviour(program)
        report = split_loop_fission(program, "main", 5, 1)
        assert behaviour(program) == before
        # The cut flows A forward but only via the array (warning mentions it)
        # or cleanly; either way behaviour held.
        loops = find_loops(program.function("main").body)
        assert len(loops) == 3

    def test_fission_warns_on_scalar_flow(self):
        source = """
        int B[10];
        int main() { int i; int t; t = 0;
          for (i = 0; i < 10; i++) {
            t = i * 2;
            B[i] = t;
          }
          return B[9]; }
        """
        report = split_loop_fission(parse(source), "main", 4, 1)
        assert report.warnings  # scalar t flows across the cut

    def test_vector_split_with_gather(self):
        program = parse(KERNEL)
        before = behaviour(program)
        split_loop(program, "main", 8, 2)
        lines = [loop.line for loop in
                 find_loops(program.function("main").body)[:2]]
        split_shared_vector(program, "main", "A", lines, copy_back=True)
        assert behaviour(program) == before
        assert "A__0" in " ".join(
            d.name for d in program.function("main").body.walk()
            if hasattr(d, "name") and isinstance(getattr(d, "name"), str))

    def test_vector_split_requires_loop_var_indexing(self):
        source = """
        int A[16];
        int main() { int i;
          for (i = 0; i < 16; i++) { A[15 - i] = i; }
          return A[0]; }
        """
        program = parse(source)
        line = find_loops(program.function("main").body)[0].line
        with pytest.raises(TransformError, match="not.*indexed"):
            split_shared_vector(program, "main", "A", [line])

    def test_localize_preserves_and_reduces_reads(self):
        program = parse(KERNEL)
        before = behaviour(program)
        report = localize_accesses(program, "main", 9)
        assert report.nodes_changed == 2
        assert behaviour(program) == before

    def test_localize_skips_written_arrays(self):
        source = """
        int A[8];
        int main() { int i;
          for (i = 0; i < 8; i++) { A[i] = A[i] + A[i]; }
          return A[3]; }
        """
        program = parse(source)
        report = localize_accesses(program, "main", 4)
        assert report.nodes_changed == 0  # A is written in the body

    def test_channel_sync_preserves_with_fifo_externals(self):
        source = """
        int main() {
          int x;
          x = 21;
          x = x * 2;
          print(x);
          return x;
        }
        """
        program = parse(source)
        queue = []
        externals = {
            "ch_write": lambda ch, v: queue.append(v) or 0,
            "ch_read": lambda ch: queue.pop(0),
        }
        before = behaviour(parse(source), externals=externals)
        insert_channel_sync(program, "main", "x", producer_line=4,
                            consumer_line=5, channel_id=0)
        queue.clear()
        assert behaviour(program, externals=externals) == before
        text_calls = sum(1 for node in program.walk()
                         if getattr(node, "name", "") in
                         ("ch_read", "ch_write"))
        assert text_calls == 2

    def test_channel_sync_validates_producer(self):
        program = parse("int main() { int x; x = 1; print(2); return x; }")
        with pytest.raises(TransformError):
            insert_channel_sync(program, "main", "y", 1, 1)

    def test_pointer_recoding_preserves(self):
        source = """
        int A[32];
        int main() {
          int i;
          int *p = &A[4];
          for (i = 0; i < 8; i++) { *(p + i) = i * i; }
          return A[4] + A[11] + p[2];
        }
        """
        program = parse(source)
        before = behaviour(parse(source))
        report = recode_pointers(program, "main")
        assert behaviour(program) == before
        assert report.nodes_changed >= 2
        # The pointer declaration is gone from the regenerated source.
        from repro.cir import emit
        assert "*p" not in emit(program)

    def test_pointer_recoding_enables_dependence_analysis(self):
        """The A4 ablation in miniature: before recoding the loop carries
        an unanalyzable pointer write; after recoding it is provably
        DOALL."""
        source = """
        int A[32];
        int main() {
          int i;
          int *p = &A[0];
          for (i = 0; i < 32; i++) { *(p + i) = i; }
          return A[31];
        }
        """
        program = parse(source)
        loop_before = find_loops(program.function("main").body)[0]
        assert analyze_loop(loop_before).classification == \
            LoopClass.SEQUENTIAL  # pointer write: conservatively serialized
        recode_pointers(program, "main")
        loop_after = find_loops(program.function("main").body)[0]
        assert analyze_loop(loop_after).classification == LoopClass.DOALL

    def test_pointer_recoding_skips_reassigned(self):
        source = """
        int A[8];
        int B[8];
        int main() {
          int *p = &A[0];
          *p = 1;
          p = &B[0];
          *p = 2;
          return A[0] + B[0];
        }
        """
        program = parse(source)
        before = behaviour(parse(source))
        report = recode_pointers(program, "main")
        assert report.warnings
        assert behaviour(program) == before

    def test_prune_control_constant_branch(self):
        source = """
        int main() { int x; if (1) { x = 10; } else { x = 20; } return x; }
        """
        program = parse(source)
        report = prune_control(program, "main")
        assert report.nodes_changed >= 1
        assert behaviour(program) == (10, ())
        from repro.cir import emit
        assert "else" not in emit(program)

    def test_prune_control_if_to_conditional(self):
        source = """
        int main(int c) {
          int x;
          if (c > 0) { x = 1; } else { x = 2; }
          return x;
        }
        """
        program = parse(source)
        prune_control(program, "main")
        from repro.cir import emit
        assert "?" in emit(program)
        assert run_program(program, args=[5]).return_value == 1
        assert run_program(program, args=[-5]).return_value == 2

    def test_shared_access_analysis(self):
        report = analyze_shared_accesses(parse(KERNEL), "main")
        assert len(report.shared["A"]) > 1
        assert len(report.shared["B"]) > 1
        assert len(report.writers["A"]) == 1

    @given(st.integers(min_value=2, max_value=8),
           st.integers(min_value=4, max_value=64))
    @settings(max_examples=30, deadline=None)
    def test_split_loop_property(self, k, n):
        source = f"""
        int A[{n}];
        int main() {{ int i; int s; s = 0;
          for (i = 0; i < {n}; i++) {{ A[i] = i * 5 % 7; }}
          for (i = 0; i < {n}; i++) {{ s += A[i]; }}
          return s; }}
        """
        program = parse(source)
        before = behaviour(program)
        split_loop(program, "main", 4, min(k, n))
        assert behaviour(program) == before


class TestProductivity:
    def test_manual_effort_is_diff_size(self):
        assert manual_effort_chars("abc", "abc") == 0
        assert manual_effort_chars("abc", "abXc") == 1
        assert manual_effort_chars("abc", "") == 3

    def test_gain_scales_with_kernel_size(self):
        def gain_for(n):
            source = f"""
            int A[{n}];
            int main() {{ int i;
              for (i = 0; i < {n}; i++) {{ A[i] = i; }}
              return A[{n - 1}]; }}
            """
            session = RecoderSession(source)
            session.apply(split_loop, "main", 4, 8)
            return productivity_gain(session, source).gain

        assert gain_for(512) >= gain_for(64) * 0.9
        assert gain_for(512) > 5

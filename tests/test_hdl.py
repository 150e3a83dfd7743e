"""Unit tests for the behavioural HDL front end."""

import pytest

from repro.dfg import OpKind
from repro.errors import HDLSemanticError, HDLSyntaxError
from repro.hdl import compile_source, parse, tokenize
from repro.rtl import evaluate_dfg

DIFFEQ_SOURCE = """
design diffeq;
input x, y, u, dx, a1;
output x1, y1, u1;
begin
  N26: b := 3 * x;
  N27: c := u * dx;
  N29: d := 3 * y;
  N31: e := b * c;
  N33: f := d * dx;
  N35: g := u * dx;
  N25: u1 := u - e;
  N30: u1 := u1 - f;
  N34: y1 := y + g;
  N36: x1 := x + dx;
  loop while x1 < a1;
end
"""


class TestLexer:
    def test_token_kinds(self):
        tokens = tokenize("x := a + 3; -- comment\n")
        kinds = [t.kind for t in tokens]
        assert kinds == ["ident", ":=", "ident", "+", "number", ";", "eof"]

    def test_positions(self):
        tokens = tokenize("a\n  b")
        assert (tokens[0].line, tokens[0].column) == (1, 1)
        assert (tokens[1].line, tokens[1].column) == (2, 3)

    def test_multichar_operators(self):
        kinds = [t.kind for t in tokenize("a <= b == c != d >= e")]
        assert "<=" in kinds and "==" in kinds and "!=" in kinds \
            and ">=" in kinds

    def test_illegal_character(self):
        with pytest.raises(HDLSyntaxError):
            tokenize("a @ b")

    def test_comment_to_eol(self):
        tokens = tokenize("-- all comment\nx")
        assert [t.kind for t in tokens] == ["ident", "eof"]


class TestParser:
    def test_parse_design_structure(self):
        unit = parse(DIFFEQ_SOURCE)
        assert unit.name == "diffeq"
        assert unit.inputs == ["x", "y", "u", "dx", "a1"]
        assert unit.outputs == ["x1", "y1", "u1"]
        assert len(unit.statements) == 10
        assert unit.loop is not None

    def test_labels(self):
        unit = parse(DIFFEQ_SOURCE)
        assert unit.statements[0].label == "N26"
        assert unit.statements[0].target == "b"

    def test_precedence(self):
        unit = parse("design p; input a, b, c; output o;"
                     "begin o := a + b * c; end")
        expr = unit.statements[0].expr
        assert expr.op == "+"
        assert expr.rhs.op == "*"

    def test_parentheses(self):
        unit = parse("design p; input a, b, c; output o;"
                     "begin o := (a + b) * c; end")
        expr = unit.statements[0].expr
        assert expr.op == "*"
        assert expr.lhs.op == "+"

    def test_missing_semicolon(self):
        with pytest.raises(HDLSyntaxError):
            parse("design p; input a; output o; begin o := a end")

    def test_garbage_after_end(self):
        with pytest.raises(HDLSyntaxError):
            parse("design p; input a; output o; begin o := a; end extra")


class TestCompiler:
    def test_diffeq_matches_builder_version(self):
        from repro.bench import load
        compiled = compile_source(DIFFEQ_SOURCE)
        reference = load("diffeq")
        assert set(compiled.operations) >= set(reference.operations) - {"N24"}
        assert compiled.loop_condition == "_loop_cond"
        # Same arithmetic behaviour.
        inputs = {"x": 3, "y": 5, "u": 7, "dx": 2, "a1": 9}
        ours = evaluate_dfg(compiled, inputs, 8)
        theirs = evaluate_dfg(reference, inputs, 8)
        for var in ("x1", "y1", "u1"):
            assert ours[var] == theirs[var]

    def test_nested_expression_temporaries(self):
        dfg = compile_source("design n; input a, b, c, d; output o;"
                             "begin o := (a + b) * (c - d); end")
        kinds = {op.kind for op in dfg.operations.values()}
        assert kinds == {OpKind.ADD, OpKind.SUB, OpKind.MUL}
        # Temporaries wired through.
        assert evaluate_dfg(dfg, {"a": 2, "b": 3, "c": 9, "d": 4}, 8)["o"] \
            == 25

    def test_copy_statement_becomes_move(self):
        dfg = compile_source("design c; input a; output o;"
                             "begin o := a; end")
        assert dfg.operation("N1").kind == OpKind.MOVE

    def test_unary(self):
        dfg = compile_source("design u; input a; output o;"
                             "begin o := ~a; end")
        assert evaluate_dfg(dfg, {"a": 0b1010}, 4)["o"] == 0b0101

    def test_use_before_assignment(self):
        with pytest.raises(HDLSemanticError):
            compile_source("design b; input a; output o;"
                           "begin o := a + z; end")

    def test_unassigned_output(self):
        with pytest.raises(HDLSemanticError):
            compile_source("design b; input a; output o, p;"
                           "begin o := a + a; end")

    def test_port_both_directions(self):
        with pytest.raises(HDLSemanticError):
            compile_source("design b; input a; output a;"
                           "begin a := a + 1; end")

    def test_keeps_constant_common_and_dead_statements(self):
        dfg = compile_source("""
        design opt;
        input a, b;
        output o;
        begin
          c := 2 + 3;
          t1 := a * b;
          t2 := a * b;
          o := t1 + t2;
          junk := a - b;
        end
        """)
        assert len(dfg) == 5

    def test_compiled_design_synthesises(self):
        from repro import synthesize
        dfg = compile_source(DIFFEQ_SOURCE)
        result = synthesize(dfg)
        result.design.validate()

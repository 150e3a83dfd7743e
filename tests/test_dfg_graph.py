"""Unit tests for the DFG data structure and dependence computation."""

import pytest

from repro.dfg import Const, DFGBuilder, OpKind, UnitClass, unit_class
from repro.dfg.graph import validate_operation, Operation
from repro.dfg.ops import arity, is_comparison, parse_op_symbol
from repro.errors import DFGError


class TestOps:
    def test_unit_class_groups_mul_and_div(self):
        assert unit_class(OpKind.MUL) == UnitClass.MULTIPLIER
        assert unit_class(OpKind.DIV) == UnitClass.MULTIPLIER

    def test_unit_class_groups_alu_ops(self):
        for kind in (OpKind.ADD, OpKind.SUB, OpKind.LT, OpKind.AND):
            assert unit_class(kind) == UnitClass.ALU

    def test_add_and_sub_compatible(self):
        assert unit_class(OpKind.ADD) == unit_class(OpKind.SUB)
        assert unit_class(OpKind.ADD) == unit_class(OpKind.LT)

    def test_mul_and_add_incompatible(self):
        assert unit_class(OpKind.MUL) != unit_class(OpKind.ADD)

    def test_comparisons(self):
        assert is_comparison(OpKind.LT)
        assert not is_comparison(OpKind.ADD)

    def test_arity(self):
        assert arity(OpKind.ADD) == 2
        assert arity(OpKind.NOT) == 1
        assert arity(OpKind.MOVE) == 1

    def test_parse_symbol_roundtrip(self):
        for kind in OpKind:
            assert parse_op_symbol(kind.value) is kind

    def test_parse_symbol_unknown(self):
        with pytest.raises(ValueError):
            parse_op_symbol("%%")


class TestGraphBasics:
    def test_chain_flow_edges(self, chain_dfg):
        flow = {(e.src, e.dst) for e in chain_dfg.edges() if e.kind == "flow"}
        assert flow == {("N1", "N2"), ("N2", "N3")}

    def test_inputs_outputs(self, chain_dfg):
        assert [v.name for v in chain_dfg.inputs()] == ["a", "b", "c", "d"]
        assert [v.name for v in chain_dfg.outputs()] == ["z"]

    def test_defs_and_uses(self, chain_dfg):
        assert chain_dfg.defs_of("x") == ["N1"]
        assert chain_dfg.uses_of("x") == ["N2"]
        assert chain_dfg.uses_of("a") == ["N1"]

    def test_defs_and_uses_in_program_order_once_per_op(self,
                                                         multidef_dfg):
        for name in multidef_dfg.variables:
            ops = [multidef_dfg.operation(o) for o in multidef_dfg.op_order]
            assert multidef_dfg.defs_of(name) == [
                op.op_id for op in ops if op.dst == name]
            assert multidef_dfg.uses_of(name) == [
                op.op_id for op in ops if name in op.src_variables()]
        b = DFGBuilder("square")
        b.inputs("a")
        b.op("N1", "*", "x", "a", "a")
        assert b.build().uses_of("a") == ["N1"]

    def test_len_and_iter(self, chain_dfg):
        assert len(chain_dfg) == 3
        assert [op.op_id for op in chain_dfg] == ["N1", "N2", "N3"]

    def test_unknown_op_raises(self, chain_dfg):
        with pytest.raises(DFGError):
            chain_dfg.operation("N99")

    def test_unknown_variable_raises(self, chain_dfg):
        with pytest.raises(DFGError):
            chain_dfg.variable("nope")


class TestMultiDef:
    def test_reaching_defs(self, multidef_dfg):
        n2 = multidef_dfg.operation("N2")
        assert n2.reaching[0] == "N1"  # u1 comes from N1

    def test_output_dependence(self, multidef_dfg):
        kinds = {(e.src, e.dst, e.kind) for e in multidef_dfg.edges()}
        assert ("N1", "N2", "flow") in kinds
        assert ("N1", "N2", "output") in kinds

    def test_anti_dependence(self):
        b = DFGBuilder("anti")
        b.inputs("a", "b")
        b.op("N1", "+", "t", "a", "b")
        b.op("N2", "+", "s", "t", "a")   # reads t
        b.op("N3", "-", "t", "a", "b")   # redefines t after the read
        kinds = {(e.src, e.dst, e.kind) for e in b.build().edges()}
        assert ("N2", "N3", "anti") in kinds


class TestConditions:
    def test_compare_marks_condition(self, loop_dfg):
        assert loop_dfg.variable("c").is_condition
        assert not loop_dfg.variable("c").needs_register()
        assert loop_dfg.condition_variables() == ["c"]

    def test_loop_condition_recorded(self, loop_dfg):
        assert loop_dfg.loop_condition == "c"


class TestOperationValidation:
    def test_wrong_arity(self):
        op = Operation("N1", OpKind.ADD, ("a",), "x")
        with pytest.raises(DFGError):
            validate_operation(op)

    def test_sink_must_be_comparison(self):
        op = Operation("N1", OpKind.ADD, ("a", "b"), None)
        with pytest.raises(DFGError):
            validate_operation(op)

    def test_const_operand(self):
        b = DFGBuilder("const")
        b.inputs("x")
        b.op("N1", "*", "y", 3, "x")
        dfg = b.build()
        assert dfg.operation("N1").srcs[0] == Const(3)
        assert dfg.operation("N1").src_variables() == ["x"]

"""Compile a parsed design into a data-flow graph.

This is the role of the "VHDL compiler" in the paper's flow (§3): one
data-path operation node per operation instance in the source.  Nested
expressions introduce compiler temporaries; a statement's label names
its *root* operation (so benchmark sources can carry the paper's node
ids), and inner operations get derived ids.
"""

from __future__ import annotations

from ..dfg import DFG, DFGBuilder
from ..errors import HDLSemanticError
from .ast_nodes import (Assignment, BinaryExpr, DesignUnit, Expr, NameExpr,
                        NumberExpr, UnaryExpr)
from .parser import parse


class _Compiler:
    def __init__(self, unit: DesignUnit) -> None:
        self.unit = unit
        self.builder = DFGBuilder(unit.name)
        self.op_counter = 0
        self.temp_counter = 0

    # ------------------------------------------------------------------
    def run(self) -> DFG:
        unit = self.unit
        duplicates = set(unit.inputs) & set(unit.outputs)
        if duplicates:
            raise HDLSemanticError(f"{unit.name}: ports {sorted(duplicates)} "
                                   f"declared both input and output")
        self.builder.inputs(*unit.inputs)
        defined: set[str] = set(unit.inputs)
        for statement in unit.statements:
            self._compile_assignment(statement, defined)
        if unit.loop is not None:
            condition = self._materialise_condition(unit.loop.condition,
                                                    defined)
            self.builder.loop(condition)
        for output in unit.outputs:
            if output not in defined:
                raise HDLSemanticError(f"{unit.name}: output {output!r} is "
                                       f"never assigned")
        self.builder.outputs(*unit.outputs)
        return self.builder.build()

    # ------------------------------------------------------------------
    def _next_op_id(self, label: str | None, sub: int) -> str:
        if label is not None:
            return label if sub == 0 else f"{label}_{sub}"
        self.op_counter += 1
        return f"N{self.op_counter}"

    def _next_temp(self) -> str:
        self.temp_counter += 1
        return f"_t{self.temp_counter}"

    def _compile_assignment(self, statement: Assignment,
                            defined: set[str]) -> None:
        expr = statement.expr
        if isinstance(expr, (NameExpr, NumberExpr)):
            # A pure copy: materialise as a MOVE operation so every
            # source statement has a data-path node.
            operand = self._operand(expr, defined, statement)
            op_id = self._next_op_id(statement.label, 0)
            self.builder.op(op_id, ":=", statement.target, operand)
        else:
            self._compile_expr(expr, statement.target, defined, statement,
                               sub_ref=[0])
        defined.add(statement.target)

    def _compile_expr(self, expr: Expr, target: str, defined: set[str],
                      statement: Assignment, sub_ref: list[int]) -> None:
        """Emit the operation tree bottom-up; root writes ``target``."""
        if isinstance(expr, UnaryExpr):
            operand = self._subexpr_operand(expr.operand, defined, statement,
                                            sub_ref)
            op_id = self._next_op_id(statement.label, sub_ref[0])
            self.builder.op(op_id, expr.op, target, operand)
            return
        if isinstance(expr, BinaryExpr):
            lhs = self._subexpr_operand(expr.lhs, defined, statement, sub_ref)
            rhs = self._subexpr_operand(expr.rhs, defined, statement, sub_ref)
            op_id = self._next_op_id(statement.label, sub_ref[0])
            self.builder.op(op_id, expr.op, target, lhs, rhs)
            return
        raise HDLSemanticError(  # pragma: no cover - grammar prevents this
            f"{self.unit.name}: cannot compile {expr!r}")

    def _subexpr_operand(self, expr: Expr, defined: set[str],
                         statement: Assignment, sub_ref: list[int]):
        if isinstance(expr, (NameExpr, NumberExpr)):
            return self._operand(expr, defined, statement)
        temp = self._next_temp()
        sub_ref[0] += 1
        sub = sub_ref[0]
        # Compile the inner tree into the temporary; its root gets a
        # derived id so labels stay unique.
        inner_statement = Assignment(temp, expr,
                                     label=(f"{statement.label}_{sub}"
                                            if statement.label else None),
                                     line=statement.line)
        self._compile_expr(expr, temp, defined, inner_statement, [0])
        defined.add(temp)
        return temp

    def _operand(self, expr: Expr, defined: set[str],
                 statement: Assignment):
        if isinstance(expr, NumberExpr):
            return expr.value
        if expr.name not in defined:
            raise HDLSemanticError(
                f"{self.unit.name}: line {statement.line}: {expr.name!r} "
                f"used before assignment and not an input")
        return expr.name

    def _materialise_condition(self, expr: Expr, defined: set[str]) -> str:
        condition = "_loop_cond"
        statement = Assignment(condition, expr, label=None, line=0)
        self._compile_assignment(statement, defined)
        return condition


def compile_source(source: str) -> DFG:
    """Compile HDL source text into a validated DFG."""
    return _Compiler(parse(source)).run()

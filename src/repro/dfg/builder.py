"""Fluent construction of data-flow graphs.

Example::

    b = DFGBuilder("ex")
    b.inputs("a", "b", "c")
    b.op("N1", "*", "x", "a", "b")
    b.op("N2", "+", "y", "x", "c")
    b.outputs("y")
    dfg = b.build()

Operands given as strings name variables; integers become constants.
Operations are recorded in call order, which defines program order and
therefore reaching definitions for multiply-defined variables.
"""

from __future__ import annotations

from typing import Optional, Union

from ..errors import DFGError
from .graph import Const, DFG, Operand, Operation, Variable, validate_operation
from .ops import OpKind, is_comparison, parse_op_symbol
from .validate import validate_dfg

RawOperand = Union[str, int, Const]


class DFGBuilder:
    """Incrementally build and validate a :class:`repro.dfg.graph.DFG`."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._variables: dict[str, Variable] = {}
        self._operations: dict[str, Operation] = {}
        self._op_order: list[str] = []
        self._loop_condition: Optional[str] = None
        self._outputs_declared = False

    # ------------------------------------------------------------------
    def inputs(self, *names: str) -> "DFGBuilder":
        """Declare primary-input variables."""
        for name in names:
            var = self._variables.setdefault(name, Variable(name))
            var.is_input = True
        return self

    def outputs(self, *names: str) -> "DFGBuilder":
        """Declare primary-output variables."""
        self._outputs_declared = True
        for name in names:
            var = self._variables.setdefault(name, Variable(name))
            var.is_output = True
        return self

    def op(self, op_id: str, kind: Union[OpKind, str], dst: Optional[str],
           *srcs: RawOperand) -> "DFGBuilder":
        """Add an operation.

        Args:
            op_id: unique id (e.g. ``"N21"``).
            kind: an :class:`OpKind` or its symbol (``"+"``, ``"*"`` ...).
            dst: destination variable name, or None for a sink comparison.
            srcs: operands; strings are variables, ints become constants.
        """
        if op_id in self._operations:
            raise DFGError(f"{self.name}: duplicate operation id {op_id!r}")
        if isinstance(kind, str):
            kind = parse_op_symbol(kind)
        operands: list[Operand] = []
        for src in srcs:
            if isinstance(src, int):
                operands.append(Const(src))
            elif isinstance(src, Const):
                operands.append(src)
            else:
                self._variables.setdefault(src, Variable(src))
                operands.append(src)
        if dst is not None:
            dst_var = self._variables.setdefault(dst, Variable(dst))
            if is_comparison(kind):
                dst_var.is_condition = True
        operation = Operation(op_id=op_id, kind=kind, srcs=tuple(operands),
                              dst=dst, order=len(self._op_order))
        validate_operation(operation)
        self._operations[op_id] = operation
        self._op_order.append(op_id)
        return self

    def compare(self, op_id: str, kind: Union[OpKind, str], dst: str,
                lhs: RawOperand, rhs: RawOperand) -> "DFGBuilder":
        """Add a comparison producing condition variable ``dst``."""
        self.op(op_id, kind, dst, lhs, rhs)
        if not is_comparison(self._operations[op_id].kind):
            raise DFGError(f"{self.name}: {op_id} is not a comparison")
        return self

    def loop(self, condition: str) -> "DFGBuilder":
        """Mark the DFG as a loop body repeated while ``condition`` holds."""
        self._loop_condition = condition
        return self

    # ------------------------------------------------------------------
    def build(self) -> DFG:
        """Finalise the graph: resolve reaching definitions and validate."""
        self._mark_implicit_inputs()
        self._resolve_reaching_defs()
        dfg = DFG(self.name, self._variables, self._operations,
                  self._op_order, loop_condition=self._loop_condition)
        validate_dfg(dfg)
        return dfg

    def _mark_implicit_inputs(self) -> None:
        """A variable used before any definition carries a primary input."""
        defined: set[str] = set()
        for op_id in self._op_order:
            op = self._operations[op_id]
            for src in op.src_variables():
                if src not in defined:
                    self._variables[src].is_input = True
            if op.dst is not None:
                defined.add(op.dst)
        if self._outputs_declared:
            # Explicit outputs: defined-but-unread variables are dead
            # code for the optimiser to find, not implicit outputs.
            return
        for op_id in self._op_order:
            op = self._operations[op_id]
            if op.dst is not None and not self._variables[op.dst].is_input:
                if op.dst not in {u for o in self._op_order
                                  for u in self._operations[o].src_variables()}:
                    # Defined but never read: a primary output by default.
                    if not self._variables[op.dst].is_condition:
                        self._variables[op.dst].is_output = True

    def _resolve_reaching_defs(self) -> None:
        last_def: dict[str, str] = {}
        for op_id in self._op_order:
            op = self._operations[op_id]
            reaching: list[Optional[str]] = []
            for src in op.srcs:
                if isinstance(src, Const):
                    reaching.append(None)
                else:
                    reaching.append(last_def.get(src))
            op.reaching = tuple(reaching)
            if op.dst is not None:
                last_def[op.dst] = op_id

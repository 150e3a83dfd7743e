"""Operation kinds and functional-unit compatibility classes.

The paper's data paths contain arithmetic operations executed on shared
functional modules.  Two operations may share a module only when one
physical unit can implement both; following the paper's tables we group
operations into *unit classes*: multiplier-class operations share
multipliers, and ALU-class operations (add, subtract, compare, logic)
share ALUs.
"""

from __future__ import annotations

import enum


class OpKind(enum.Enum):
    """The behavioural operation executed by a data-path node."""

    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"
    LT = "<"
    GT = ">"
    LE = "<="
    GE = ">="
    EQ = "=="
    NE = "!="
    AND = "&"
    OR = "|"
    XOR = "^"
    NOT = "~"
    SHL = "<<"
    SHR = ">>"
    MOVE = ":="

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


class UnitClass(enum.Enum):
    """The class of functional unit able to execute an operation."""

    MULTIPLIER = "mult"
    ALU = "alu"
    SHIFTER = "shift"
    WIRE = "wire"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


_COMPARISONS = frozenset({OpKind.LT, OpKind.GT, OpKind.LE, OpKind.GE,
                          OpKind.EQ, OpKind.NE})
_LOGIC = frozenset({OpKind.AND, OpKind.OR, OpKind.XOR, OpKind.NOT})
_UNIT_CLASS = {
    OpKind.MUL: UnitClass.MULTIPLIER,
    OpKind.DIV: UnitClass.MULTIPLIER,
    OpKind.SHL: UnitClass.SHIFTER,
    OpKind.SHR: UnitClass.SHIFTER,
    OpKind.MOVE: UnitClass.WIRE,
}


def unit_class(kind: OpKind) -> UnitClass:
    """Return the class of functional unit that executes ``kind``.

    ADD/SUB, comparisons and bitwise logic all map to :data:`UnitClass.ALU`
    because a single ALU implements them; MUL/DIV map to
    :data:`UnitClass.MULTIPLIER`.
    """
    return _UNIT_CLASS.get(kind, UnitClass.ALU)


def is_comparison(kind: OpKind) -> bool:
    """Return True when ``kind`` produces a 1-bit condition result."""
    return kind in _COMPARISONS


def arity(kind: OpKind) -> int:
    """Return the number of data inputs an operation of ``kind`` reads."""
    if kind in (OpKind.NOT, OpKind.MOVE):
        return 1
    return 2


#: Symbols used by the paper's tables for module kinds, e.g. ``(*)`` for a
#: multiplier row and ``(+)`` / ``(-)`` / ``(<)`` for ALU rows.
TABLE_SYMBOL = {
    UnitClass.MULTIPLIER: "*",
    UnitClass.ALU: "+-",
    UnitClass.SHIFTER: "<<",
    UnitClass.WIRE: ":=",
}


def parse_op_symbol(symbol: str) -> OpKind:
    """Map an operator symbol (``"+"``, ``"*"``, ``"<"``...) to an OpKind.

    Raises:
        ValueError: when the symbol names no known operation.
    """
    for kind in OpKind:
        if kind.value == symbol:
            return kind
    raise ValueError(f"unknown operation symbol: {symbol!r}")

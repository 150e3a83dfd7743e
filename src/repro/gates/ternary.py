"""Ternary (0/1/X) gate evaluation.

The ATPG fault pruner's sequential constant propagation
(:mod:`repro.atpg.prune`) values lines in three-valued logic with
controlling-value semantics: a 0 on any AND input or a 1 on any OR
input decides the output regardless of the X inputs.
:func:`eval_gate` evaluates one gate and :func:`propagate` is the one
pass that values a whole netlist.
"""

from __future__ import annotations

from typing import Optional

from .netlist import GateNetlist, GateType

#: Ternary line value: 0, 1 or None (X = unknown).
Ternary = Optional[int]


# Enum members bound once: a ``GateType.X`` attribute lookup costs far
# more than a module global, and both passes below run once per gate.
_INPUT, _CONST0, _CONST1, _DFF = (GateType.INPUT, GateType.CONST0,
                                  GateType.CONST1, GateType.DFF)
_BUF, _NOT, _AND, _NAND, _OR, _NOR, _XOR, _XNOR = (
    GateType.BUF, GateType.NOT, GateType.AND, GateType.NAND, GateType.OR,
    GateType.NOR, GateType.XOR, GateType.XNOR)


def eval_gate(gtype: GateType, values: list[Ternary]) -> Ternary:
    """Ternary evaluation of one combinational gate."""
    if gtype is _AND or gtype is _NAND:
        if 0 in values:
            out = 0
        elif None in values:
            return None
        else:
            out = 1
        return out if gtype is _AND else 1 - out
    if gtype is _OR or gtype is _NOR:
        if 1 in values:
            out = 1
        elif None in values:
            return None
        else:
            out = 0
        return out if gtype is _OR else 1 - out
    if gtype is _BUF:
        return values[0]
    if gtype is _NOT:
        v = values[0]
        return None if v is None else 1 - v
    if gtype is _XOR or gtype is _XNOR:
        if None in values:
            return None
        acc = 0
        for v in values:
            acc ^= v  # type: ignore[operator]
        return acc if gtype is _XOR else 1 - acc
    raise ValueError(f"not a combinational gate: {gtype}")  # pragma: no cover


def propagate(netlist: GateNetlist,
              dff_state: dict[int, Ternary]) -> list[Ternary]:
    """The ternary value of every gate, in one pass in gid order.

    Primary inputs are X, constants are 0/1 and each DFF Q carries its
    ``dff_state`` value (X when absent).  Gid order is topological for
    every netlist built through :meth:`GateNetlist.add` (DFF D inputs
    excepted, which the pass never reads), so each fanin is valued
    before the gates that read it.
    """
    values: list[Ternary] = [None] * len(netlist.gates)
    for gate in netlist.gates:
        gtype = gate.gtype
        if gtype is _INPUT:
            continue
        if gtype is _DFF:
            values[gate.gid] = dff_state.get(gate.gid)
        elif gtype is _CONST0:
            values[gate.gid] = 0
        elif gtype is _CONST1:
            values[gate.gid] = 1
        else:
            values[gate.gid] = eval_gate(
                gtype, [values[f] for f in gate.fanins])
    return values

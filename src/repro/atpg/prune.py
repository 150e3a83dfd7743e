"""Analysis-driven fault pruning: skip provably untestable stuck-ats.

A stuck-at-``v`` fault on a line that carries ``v`` in *every* cycle of
*every* input sequence is undetectable: the faulty machine and the good
machine compute identical values from the shared all-zero reset state
(induction over cycles), so no test distinguishes them.  PODEM can
prove this too — by exhausting its search per time-frame ladder rung,
per fault — but at orders of magnitude more effort than the static
argument.

:func:`constant_lines` finds such lines by **sequential ternary
constant propagation**: every primary input is X (unknown), every DFF
starts at its reset value 0 (the convention both the fault simulator's
:meth:`~repro.gates.simulate.CompiledCircuit.zero_state` and the PODEM
unroller use — see :mod:`repro.atpg.unroll`), and the next-state
values are *joined* (0 ⊔ 1 = X) into the state until a fixpoint.  The
fixpoint state over-approximates the DFF contents of every reachable
cycle, so a gate that still evaluates to 0 or 1 under it is constant
for the machine's whole behaviour.

The embedded-controller netlists are rich in such cones: zero-padded
constant words and FSM control signals that never go hot tie whole
regions of the data path to fixed values.
"""

from __future__ import annotations

from ..gates.netlist import GateNetlist
from ..gates.ternary import Ternary, propagate
from .faults import Fault

__all__ = ["Ternary", "constant_lines", "prune_untestable"]


def constant_lines(netlist: GateNetlist) -> dict[int, int]:
    """Lines proved constant over every cycle from reset.

    Returns a map ``gate id -> constant value`` covering every gate
    (including the DFFs themselves) whose output never changes, for any
    input sequence, starting from the all-zero reset state.
    """
    dffs = netlist.dffs()
    state: dict[int, Ternary] = {g.gid: 0 for g in dffs}
    # Fixpoint: join each DFF's next-state value into its state.  The
    # state lattice only descends (known -> X), so this terminates in
    # at most |DFF| + 1 passes; in practice a handful.
    for _ in range(len(dffs) + 1):
        values = propagate(netlist, state)
        changed = False
        for gate in dffs:
            nxt = values[gate.fanins[0]] if gate.fanins else None
            if state[gate.gid] is not None and nxt != state[gate.gid]:
                state[gate.gid] = None
                changed = True
        if not changed:
            break
    values = propagate(netlist, state)
    return {gid: v for gid, v in enumerate(values) if v is not None}


def prune_untestable(faults: list[Fault], constants: dict[int, int]
                     ) -> tuple[list[Fault], list[Fault]]:
    """Split a fault list into (worth attempting, provably untestable).

    A fault is pruned only when it forces the value the line already
    always carries — the *opposite*-polarity fault on a constant line
    genuinely changes the machine and stays in the attempt list (its
    detectability is an observability question PODEM must answer).
    """
    kept: list[Fault] = []
    pruned: list[Fault] = []
    for fault in faults:
        if constants.get(fault.gid) == fault.stuck:
            pruned.append(fault)
        else:
            kept.append(fault)
    return kept, pruned

"""Dead-logic pruning: keep only gates that can reach an output.

Word-level constructions sometimes leave unobservable gates behind
(e.g. the final carry of a truncating adder).  Faults on such gates are
untestable by definition.  The ATPG flow does not prune them: they stay
in the fault universe, and PODEM searches each one the random phase
leaves until it proves the fault untestable or aborts.  GAT004's hint
names :func:`prune_unobservable` as the fix for a netlist with such
gates.

The observable set is computed to a fixpoint: primary outputs are
observable; a gate feeding an observable gate is observable; a DFF's D
cone is observable when the DFF's Q is (its state influences later
cycles).
"""

from __future__ import annotations

from .netlist import GateNetlist, GateType


def observable_gates(netlist: GateNetlist) -> set[int]:
    """Gate ids with a structural path to a primary output."""
    observable: set[int] = set(netlist.outputs.values())
    worklist = list(observable)
    fanin_of = {g.gid: g.fanins for g in netlist.gates}
    while worklist:
        gid = worklist.pop()
        for fin in fanin_of[gid]:
            if fin not in observable:
                observable.add(fin)
                worklist.append(fin)
    return observable


def prune_unobservable(netlist: GateNetlist) -> GateNetlist:
    """A new netlist containing only the observable cone.

    Primary inputs are kept even when dead (the interface is part of
    the circuit); everything else outside the observable set is
    dropped and gate ids are renumbered.
    """
    keep = observable_gates(netlist)
    pruned = GateNetlist(netlist.name)
    mapping: dict[int, int] = {}
    pending_dffs: list[tuple[int, int]] = []
    for gate in netlist.gates:
        if gate.gtype == GateType.INPUT:
            mapping[gate.gid] = pruned.add_input(
                next(n for n, g in netlist.inputs.items() if g == gate.gid))
            continue
        if gate.gid not in keep:
            continue
        if gate.gtype == GateType.DFF:
            mapping[gate.gid] = pruned.add_dff(gate.name)
            pending_dffs.append((gate.gid, gate.fanins[0]))
        else:
            mapping[gate.gid] = pruned.add(
                gate.gtype, tuple(mapping[f] for f in gate.fanins),
                name=gate.name)
    for old_gid, old_d in pending_dffs:
        pruned.connect_dff(mapping[old_gid], mapping[old_d])
    for name, gid in netlist.outputs.items():
        pruned.set_output(name, mapping[gid])
    return pruned

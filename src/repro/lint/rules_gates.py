"""Gate-netlist-layer design rules (codes ``GAT001``-``GAT008``).

The netlist construction API (:class:`repro.gates.netlist.GateNetlist`)
enforces most of these at build time; the rules re-check the final data
structure so that netlists assembled or transformed by other means
(pruning, external readers) get the same audit.
:meth:`GateNetlist.check_complete` delegates to
:func:`floating_dffs` so the raise-style API and rule GAT001 share one
implementation.
"""

from __future__ import annotations

from ..gates.netlist import (GateType, SOURCE_TYPES, UNARY_TYPES,
                             combinational_cycle)
from .diagnostic import Severity
from .registry import Emit, LintContext, rule

__all__ = ["combinational_cycle", "floating_dffs"]


def floating_dffs(netlist) -> list:
    """DFF gates whose D input was never connected (shared with
    :meth:`GateNetlist.check_complete`)."""
    return [g for g in netlist.gates
            if g.gtype is GateType.DFF and not g.fanins]


def _fanout_counts(netlist) -> list[int]:
    """Fanout per gate, tolerant of dangling references (GAT003 reports
    those)."""
    n = len(netlist.gates)
    counts = [0] * n
    for gate in netlist.gates:
        for fin in gate.fanins:
            if 0 <= fin < n:
                counts[fin] += 1
    for gid in netlist.outputs.values():
        if 0 <= gid < n:
            counts[gid] += 1
    return counts


@rule("GAT001", layer="gates", severity=Severity.ERROR,
      title="floating DFF input")
def check_dffs_connected(ctx: LintContext, emit: Emit) -> None:
    """Every state bit needs a D driver."""
    netlist = ctx.netlist
    for gate in floating_dffs(netlist):
        emit(f"{netlist.name}: DFF {gate.gid} ({gate.name!r}) has no "
             f"D input", location=f"gate {gate.gid}",
             hint="connect_dff() closes the feedback")


@rule("GAT002", layer="gates", severity=Severity.ERROR,
      title="combinational loop")
def check_no_combinational_loops(ctx: LintContext, emit: Emit) -> None:
    """A cycle not broken by a register never settles."""
    cycle = combinational_cycle(ctx.netlist)
    if cycle:
        chain = " -> ".join(str(g) for g in cycle)
        emit(f"{ctx.netlist.name}: combinational loop {chain}",
             location=f"gate {cycle[0]}",
             hint="insert a register or cut the feedback path")


@rule("GAT003", layer="gates", severity=Severity.ERROR,
      title="dangling fanin reference")
def check_fanin_references(ctx: LintContext, emit: Emit) -> None:
    """Fanins must reference existing gates."""
    netlist = ctx.netlist
    n = len(netlist.gates)
    for gate in netlist.gates:
        for fin in gate.fanins:
            if not (0 <= fin < n):
                emit(f"{netlist.name}: gate {gate.gid} reads nonexistent "
                     f"gate {fin}", location=f"gate {gate.gid}")


@rule("GAT004", layer="gates", severity=Severity.WARNING,
      title="dead gate")
def check_dead_gates(ctx: LintContext, emit: Emit) -> None:
    """A non-input gate nothing reads and no output observes is dead
    logic (the word-level expansion leaves unused carry bits behind;
    the prune pass removes them)."""
    netlist = ctx.netlist
    fanout = _fanout_counts(netlist)
    for gate in netlist.gates:
        if gate.gtype is GateType.INPUT:
            continue  # GAT006 covers unused inputs
        if fanout[gate.gid] == 0:
            emit(f"{netlist.name}: gate {gate.gid} "
                 f"({gate.gtype.value}{f' {gate.name!r}' if gate.name else ''})"
                 f" drives nothing", location=f"gate {gate.gid}",
                 hint="prune_unobservable() removes dead logic")


@rule("GAT005", layer="gates", severity=Severity.ERROR,
      title="multiply-driven DFF")
def check_single_driver(ctx: LintContext, emit: Emit) -> None:
    """A state bit with more than one D driver is a multiply-driven net."""
    netlist = ctx.netlist
    for gate in netlist.gates:
        if gate.gtype is GateType.DFF and len(gate.fanins) > 1:
            emit(f"{netlist.name}: DFF {gate.gid} ({gate.name!r}) has "
                 f"{len(gate.fanins)} D drivers", location=f"gate {gate.gid}",
                 hint="a net must have exactly one driver")


@rule("GAT006", layer="gates", severity=Severity.WARNING,
      title="unused primary input")
def check_inputs_used(ctx: LintContext, emit: Emit) -> None:
    """A primary input no gate reads is a dangling port."""
    netlist = ctx.netlist
    fanout = _fanout_counts(netlist)
    for name, gid in sorted(netlist.inputs.items()):
        if fanout[gid] == 0:
            emit(f"{netlist.name}: input {name!r} is never read",
                 location=f"gate {gid}")


@rule("GAT007", layer="gates", severity=Severity.ERROR,
      title="wrong fanin count")
def check_fanin_counts(ctx: LintContext, emit: Emit) -> None:
    """Sources take no fanins, unary gates exactly one, other gates at
    least two (floating DFFs are GAT001's finding, not ours)."""
    netlist = ctx.netlist
    for gate in netlist.gates:
        count = len(gate.fanins)
        if gate.gtype in SOURCE_TYPES and count:
            emit(f"{netlist.name}: {gate.gtype.value} gate {gate.gid} "
                 f"takes no fanins but has {count}",
                 location=f"gate {gate.gid}")
        elif gate.gtype is GateType.DFF:
            continue  # 0 fanins -> GAT001, >1 -> GAT005
        elif gate.gtype in UNARY_TYPES and count != 1:
            emit(f"{netlist.name}: {gate.gtype.value} gate {gate.gid} "
                 f"takes one fanin but has {count}",
                 location=f"gate {gate.gid}")
        elif (gate.gtype not in SOURCE_TYPES
              and gate.gtype not in UNARY_TYPES and count < 2):
            emit(f"{netlist.name}: {gate.gtype.value} gate {gate.gid} "
                 f"needs two fanins but has {count}",
                 location=f"gate {gate.gid}")


@rule("GAT008", layer="gates", severity=Severity.ERROR,
      title="output driven by unknown gate")
def check_output_drivers(ctx: LintContext, emit: Emit) -> None:
    """Primary outputs must be driven by existing gates."""
    netlist = ctx.netlist
    n = len(netlist.gates)
    for name, gid in sorted(netlist.outputs.items()):
        if not (0 <= gid < n):
            emit(f"{netlist.name}: output {name!r} driven by nonexistent "
                 f"gate {gid}", location=name)

"""Petri-net-layer design rules (codes ``NET001``-``NET006``).

Reachability in ``NET003``-``NET005`` is the token-flow closure
(:func:`token_flow_closure`): exact for the chain control nets this
library builds, an over-approximation in general (a place the closure
cannot reach is certainly unreachable, so the warnings are sound).
"""

from __future__ import annotations

from ..petri.net import PetriNet
from .diagnostic import Severity
from .registry import Emit, LintContext, rule


def token_flow_closure(net: PetriNet) -> tuple[set[str], set[str]]:
    """(reachable places, fireable transitions) without enumeration.

    A transition counts as fireable once all its input places have ever
    been producible from the initial marking (sourceless ones never).
    Exact for the chain control nets this library builds, an
    over-approximation in general, so its negative facts are sound: a
    place outside it is never marked, a transition never fires.
    """
    reachable = set(net.initial_marking)
    fireable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for transition in net.transitions.values():
            if transition.trans_id in fireable or not transition.inputs:
                continue
            if all(p in reachable for p in transition.inputs):
                fireable.add(transition.trans_id)
                reachable.update(transition.outputs)
                changed = True
    return reachable, fireable


@rule("NET001", layer="petri", severity=Severity.ERROR, title="no places")
def check_has_places(ctx: LintContext, emit: Emit) -> None:
    """A control part needs at least one place."""
    if not ctx.net.places:
        emit(f"{ctx.net.name}: no places")


@rule("NET002", layer="petri", severity=Severity.ERROR,
      title="no initial marking")
def check_has_marking(ctx: LintContext, emit: Emit) -> None:
    """Execution starts from the initial marking; it must be non-empty."""
    if ctx.net.places and not ctx.net.initial_marking:
        emit(f"{ctx.net.name}: no initial marking")


@rule("NET003", layer="petri", severity=Severity.WARNING,
      title="unreachable place")
def check_reachable_places(ctx: LintContext, emit: Emit) -> None:
    """A place no token can ever reach is dead control structure."""
    net = ctx.net
    if not net.initial_marking:
        return  # NET002 already fired; everything would be unreachable
    reachable, _ = token_flow_closure(net)
    for place_id in sorted(set(net.places) - reachable):
        emit(f"{net.name}: place {place_id!r} is unreachable from the "
             f"initial marking", location=place_id,
             hint="remove it or connect a transition that produces it")


@rule("NET004", layer="petri", severity=Severity.WARNING,
      title="dead transition")
def check_fireable_transitions(ctx: LintContext, emit: Emit) -> None:
    """A transition that can never fire is dead control structure."""
    net = ctx.net
    if not net.initial_marking:
        return
    _, fireable = token_flow_closure(net)
    for trans_id in sorted(net.transitions):
        if trans_id not in fireable and net.transitions[trans_id].inputs:
            emit(f"{net.name}: transition {trans_id!r} can never fire",
                 location=trans_id,
                 hint="one of its input places is unreachable")


@rule("NET005", layer="petri", severity=Severity.WARNING,
      title="unreachable final place")
def check_final_reachable(ctx: LintContext, emit: Emit) -> None:
    """The computation must be able to terminate: some designated final
    place has to be reachable."""
    net = ctx.net
    if not net.final_places or not net.initial_marking:
        return
    reachable, _ = token_flow_closure(net)
    if not (net.final_places & reachable):
        emit(f"{net.name}: no final place is reachable",
             location=",".join(sorted(net.final_places)),
             hint="the control part can never signal completion")


@rule("NET006", layer="petri", severity=Severity.ERROR,
      title="sourceless transition")
def check_transition_inputs(ctx: LintContext, emit: Emit) -> None:
    """Every transition must consume at least one token (a sourceless
    transition would fire forever and break safeness)."""
    for trans_id in sorted(ctx.net.transitions):
        if not ctx.net.transitions[trans_id].inputs:
            emit(f"{ctx.net.name}: transition {trans_id!r} has no input "
                 f"places", location=trans_id)


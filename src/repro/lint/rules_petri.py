"""Petri-net-layer design rules (codes ``NET001``-``NET007``).

Reachability in ``NET003``-``NET005`` is the token-flow closure
(:func:`~repro.petri.reachability.token_flow_closure`): exact for the
safe, conflict-light control nets this library builds, an
over-approximation in general (a place the closure cannot reach is
certainly unreachable, so the warnings are sound).
"""

from __future__ import annotations

from ..petri.reachability import token_flow_closure
from .diagnostic import Severity
from .registry import Emit, LintContext, rule


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


#: Reachability bound for the NET007 safeness audit: control nets this
#: library builds stay far below it, and genuinely huge nets should not
#: stall an interactive lint run.
SAFENESS_MAX_MARKINGS = 20_000


@rule("NET007", layer="petri", severity=Severity.WARNING,
      title="unsafe firing")
def check_safe(ctx: LintContext, emit: Emit) -> None:
    """ETPN control parts must be *safe*: no reachable firing may put a
    second token into a place.  A warning (not an error) because the
    raise-style validators run this lint layer — an error would make an
    unsafe net unconstructible and hence unreportable.

    Two-tier: when the structural certificate (shared with the
    ``STR00x`` rules through ``ctx.cache``) already *proves* safety,
    the reachability BFS is skipped entirely — a proved-safe net has no
    unsafe firing to report, so the tiers can never disagree here."""
    from ..analysis.structural import Verdict
    from ..errors import PetriNetError
    from ..petri.reachability import ReachabilityGraph
    from .rules_structural import cached_structural
    net = ctx.net
    if not net.initial_marking:
        return  # NET002 already fired
    cert = cached_structural(ctx)
    if cert is not None and cert.safe is Verdict.PROVED:
        return  # structural tier decided; no enumeration needed
    try:
        graph = ReachabilityGraph(net, max_markings=SAFENESS_MAX_MARKINGS)
    except PetriNetError:
        return  # state space too large to audit; not a finding
    for firing in graph.unsafe_firings:
        emit(f"{net.name}: firing {firing.trans_id!r} in marking "
             f"{sorted(firing.marking)} would double-mark "
             f"{list(firing.places)}", location=firing.trans_id,
             hint="the net is not safe; serialise the conflicting branches")

"""Analysis-layer rules: control-level races and value-flow divergences.

These rules wrap :mod:`repro.analysis`: the may-happen-in-parallel race
detector (``RAC0xx``) and the symbolic equivalence certifier
(``EQV0xx``).  Both analyses are comparatively expensive (a
reachability-graph exploration, a symbolic execution), so they run once
per :class:`~repro.lint.registry.LintContext` and are memoised in
``ctx.cache`` — every rule of the layer, and
:func:`repro.analysis.verify.analyze_design`, shares one computation.

A context that cannot be analysed (incomplete schedule, unbound
variables, unexplorable net) yields no findings here: the cause is an
upstream error with its own code (``SCH``/``BND``/``NET``), and
:func:`~repro.analysis.verify.analyze_design` surfaces the skip as
``LNT001``.  The failure reason is cached for that purpose.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..analysis.equivalence import EquivalenceCertificate, certify
from ..analysis.races import ConcurrencyAnalysis
from ..petri.reachability import DEFAULT_MAX_MARKINGS
from .diagnostic import Severity
from .registry import Emit, LintContext, rule

#: ``ctx.cache`` key holding the reachability bound (int).
MAX_MARKINGS_KEY = "analysis.max_markings"

#: ``ctx.cache`` key holding the shared :class:`~repro.runtime.budget.Budget`.
BUDGET_KEY = "analysis.budget"

#: ``ctx.cache`` key holding the MHP tier name (``auto``/``structural``/
#: ``enumerative``).
TIER_KEY = "analysis.tier"


def _max_markings(ctx: LintContext) -> int:
    return int(ctx.cache.get(MAX_MARKINGS_KEY, DEFAULT_MAX_MARKINGS))


def cached_concurrency(ctx: LintContext) -> Optional[ConcurrencyAnalysis]:
    """The context's memoised race analysis (None when unanalysable)."""
    if "analysis.concurrency" not in ctx.cache:
        result: Optional[ConcurrencyAnalysis] = None
        error = ""
        if ctx.dfg is None or ctx.steps is None or ctx.binding is None:
            error = "needs a DFG, a schedule and a binding"
        else:
            try:
                result = ConcurrencyAnalysis(
                    ctx.dfg, ctx.steps, ctx.binding, net=ctx.net,
                    placement=ctx.placement,
                    max_markings=_max_markings(ctx),
                    budget=ctx.cache.get(BUDGET_KEY),
                    tier=ctx.cache.get(TIER_KEY, "auto"))
            except Exception as exc:
                error = str(exc)
        ctx.cache["analysis.concurrency"] = result
        ctx.cache["analysis.concurrency_error"] = error
    return ctx.cache["analysis.concurrency"]


def cached_certificate(ctx: LintContext) -> Optional[EquivalenceCertificate]:
    """The context's memoised equivalence certificate (None when N/A)."""
    if "analysis.certificate" not in ctx.cache:
        result: Optional[EquivalenceCertificate] = None
        error = ""
        if ctx.dfg is None or ctx.steps is None or ctx.binding is None:
            error = "needs a DFG, a schedule and a binding"
        else:
            try:
                result = certify(ctx.dfg, ctx.steps, ctx.binding)
            except Exception as exc:
                error = str(exc)
        ctx.cache["analysis.certificate"] = result
        ctx.cache["analysis.certificate_error"] = error
    return ctx.cache["analysis.certificate"]


def _race_rule(code: str) -> Callable[[LintContext, Emit], None]:
    """A rule body forwarding the ``code`` findings of the race analysis."""

    def check(ctx: LintContext, emit: Emit) -> None:
        analysis = cached_concurrency(ctx)
        if analysis is None:
            return
        for finding in analysis.races():
            if finding.code == code:
                emit(finding.message, location=finding.location,
                     hint=finding.hint)

    return check


def _divergence_rule(code: str) -> Callable[[LintContext, Emit], None]:
    """A rule body forwarding the ``code`` divergences of the certifier."""

    def check(ctx: LintContext, emit: Emit) -> None:
        certificate = cached_certificate(ctx)
        if certificate is None:
            return
        for divergence in certificate.divergences:
            if divergence.code == code:
                emit(divergence.message, location=divergence.location,
                     hint=divergence.hint)

    return check


# ----------------------------------------------------------------------
# RAC: may-happen-in-parallel races (repro.analysis.races)
# ----------------------------------------------------------------------
@rule("RAC001", layer="analysis", severity=Severity.ERROR,
      title="concurrent module sharing")
def _rac001(ctx: LintContext, emit: Emit) -> None:
    """Two operations bound to one module may execute concurrently."""
    _race_rule("RAC001")(ctx, emit)


@rule("RAC002", layer="analysis", severity=Severity.ERROR,
      title="register write-write race")
def _rac002(ctx: LintContext, emit: Emit) -> None:
    """Two concurrent writes race for one register."""
    _race_rule("RAC002")(ctx, emit)


@rule("RAC003", layer="analysis", severity=Severity.ERROR,
      title="register read-write race")
def _rac003(ctx: LintContext, emit: Emit) -> None:
    """A register may be overwritten while concurrently being read."""
    _race_rule("RAC003")(ctx, emit)


@rule("RAC004", layer="analysis", severity=Severity.WARNING,
      title="interconnect contention")
def _rac004(ctx: LintContext, emit: Emit) -> None:
    """A multiplexed input may be asked for two sources at once."""
    _race_rule("RAC004")(ctx, emit)


# ----------------------------------------------------------------------
# EQV: symbolic value-flow divergences (repro.analysis.equivalence)
# ----------------------------------------------------------------------
@rule("EQV001", layer="analysis", severity=Severity.ERROR,
      title="value never produced")
def _eqv001(ctx: LintContext, emit: Emit) -> None:
    """An output or condition value is never computed and stored."""
    _divergence_rule("EQV001")(ctx, emit)


@rule("EQV002", layer="analysis", severity=Severity.ERROR,
      title="output value diverges")
def _eqv002(ctx: LintContext, emit: Emit) -> None:
    """An output port computes a different expression than the DFG."""
    _divergence_rule("EQV002")(ctx, emit)


@rule("EQV003", layer="analysis", severity=Severity.ERROR,
      title="stale operand read")
def _eqv003(ctx: LintContext, emit: Emit) -> None:
    """An operand read finds a stale or missing register value."""
    _divergence_rule("EQV003")(ctx, emit)


@rule("EQV004", layer="analysis", severity=Severity.ERROR,
      title="condition value diverges")
def _eqv004(ctx: LintContext, emit: Emit) -> None:
    """A controller condition computes a different expression."""
    _divergence_rule("EQV004")(ctx, emit)


@rule("EQV005", layer="analysis", severity=Severity.ERROR,
      title="same-edge register clobber")
def _eqv005(ctx: LintContext, emit: Emit) -> None:
    """Two live values are clocked into one register at the same edge."""
    _divergence_rule("EQV005")(ctx, emit)

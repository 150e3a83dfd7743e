"""Analysis-layer rules: value-flow divergences.

These rules wrap the symbolic equivalence certifier of
:mod:`repro.analysis.equivalence` (``EQV0xx``).  The certificate is a
symbolic execution of the whole design, so it runs once per
:class:`~repro.lint.registry.LintContext` and is memoised in
``ctx.cache`` — every rule of the layer, and
:func:`repro.analysis.verify.analyze_design`, shares one computation.

A context that cannot be certified (incomplete schedule, unbound
variables) yields no findings here: the cause is an upstream error with
its own code (``SCH``/``BND``), and
:func:`~repro.analysis.verify.analyze_design` surfaces the skip as
``LNT001``.  The failure reason is cached for that purpose.
"""

from __future__ import annotations

from typing import Callable, Optional

from ..analysis.equivalence import EquivalenceCertificate, certify
from .diagnostic import Severity
from .registry import Emit, LintContext, rule


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

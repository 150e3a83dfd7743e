"""Timing-layer design rules (codes ``TIM001``-``TIM006``).

The timing layer audits the gate netlist with the static timing
analyser of :mod:`repro.analysis.timing`: arrival times propagated
through every combinational cone, slack against the clock period, and
false paths pruned by ternary constant propagation.  Where the ``GAT``
rules check the netlist's *shape*, these rules check whether it can
actually run at the clock the cost model prices — the gate-level
counterpart of the library's whole-step delay model.

The report is computed once per
:class:`~repro.lint.registry.LintContext` and memoised in ``ctx.cache``
under :data:`REPORT_KEY`, so one shared context serves all six rules
with a single analysis.  ``ctx.period`` selects the clock; None audits
the library-derived default period, at which a healthy expansion closes
timing by construction — findings then mean the netlist (or the delay
table) drifted from the model the allocator priced.
"""

from __future__ import annotations

from typing import Optional

from ..analysis.timing import analyze_timing
from ..analysis.timing.report import TimingReport
from .diagnostic import Severity
from .registry import Emit, LintContext, rule

#: ``ctx.cache`` key holding the memoised timing report.
REPORT_KEY = "timing.report"

#: At most this many findings per multi-witness rule, to keep a broken
#: netlist's report readable.
MAX_FINDINGS = 8


def cached_timing(ctx: LintContext) -> Optional[TimingReport]:
    """The context's memoised timing report (None when the context has
    no netlist or the netlist is empty)."""
    if REPORT_KEY not in ctx.cache:
        result: Optional[TimingReport] = None
        if ctx.netlist is not None and ctx.netlist.gates:
            try:
                result = analyze_timing(ctx.netlist, bits=ctx.bits,
                                        period=ctx.period, k_paths=0)
            except Exception:  # degenerate netlists are GAT00x findings
                result = None
        ctx.cache[REPORT_KEY] = result
    return ctx.cache[REPORT_KEY]


@rule("TIM001", layer="timing", severity=Severity.ERROR,
      title="clock period violated")
def check_violations(ctx: LintContext, emit: Emit) -> None:
    """An endpoint's data arrives after its required time: the netlist
    cannot run at the analysed clock period."""
    rep = cached_timing(ctx)
    if rep is None:
        return
    for e in rep.violations()[:MAX_FINDINGS]:
        emit(f"{rep.name}: {e.kind} endpoint {e.name!r} misses the "
             f"period {rep.period:g} by {-e.slack:.2f} "
             f"(arrival {e.arrival:.2f}, required {e.required:.2f}, "
             f"{e.levels} levels)",
             location=e.name,
             hint="slow the clock; at the library-derived period a "
                  "violation means the netlist drifted from the step "
                  "model the allocator priced")


@rule("TIM002", layer="timing", severity=Severity.WARNING,
      title="unconstrained endpoint")
def check_unconstrained(ctx: LintContext, emit: Emit) -> None:
    """No timed launch reaches the endpoint: its cone reduces to a
    constant, so it carries no transition to time (dead logic, or a
    register the reset analysis proves stuck)."""
    rep = cached_timing(ctx)
    if rep is None:
        return
    for e in rep.unconstrained()[:MAX_FINDINGS]:
        emit(f"{rep.name}: {e.kind} endpoint {e.name!r} is unconstrained "
             f"— its cone is proved constant, so every path to it is "
             f"false",
             location=e.name,
             hint="constant-fed logic is dead; check the cone's wiring")


@rule("TIM003", layer="timing", severity=Severity.ERROR,
      title="analysis blocked by combinational cycle")
def check_cycle(ctx: LintContext, emit: Emit) -> None:
    """A combinational cycle makes levelization impossible: no arrival
    time on the loop is defined (``GAT002`` locates the loop; this rule
    records that timing could not be audited at all)."""
    rep = cached_timing(ctx)
    if rep is None or not rep.cycle:
        return
    emit(f"{rep.name}: static timing analysis blocked by a combinational "
         f"cycle through {len(rep.cycle) - 1} gate(s) "
         f"(e.g. gid {rep.cycle[0]})",
         location=f"gid {rep.cycle[0]}",
         hint="break the loop with a register; no endpoint was timed")


@rule("TIM004", layer="timing", severity=Severity.ERROR,
      title="delay table inconsistent")
def check_table(ctx: LintContext, emit: Emit) -> None:
    """The delay table fails its own sanity checks (non-positive or
    non-monotone delays): every arrival derived from it is meaningless,
    so the analysis refuses to propagate."""
    rep = cached_timing(ctx)
    if rep is None:
        return
    for problem in rep.table_problems[:MAX_FINDINGS]:
        emit(f"{rep.name}: delay table rejected: {problem}",
             hint="fix the DelayTable; no arrival was computed")


@rule("TIM005", layer="timing", severity=Severity.ERROR,
      title="delay table disagrees with module library")
def check_library(ctx: LintContext, emit: Emit) -> None:
    """A unit class measures deeper than the control steps the module
    library declares for it: every schedule priced with that library is
    optimistic, so Tables 1-3 style results are suspect."""
    rep = cached_timing(ctx)
    if rep is None:
        return
    for problem in rep.library_problems[:MAX_FINDINGS]:
        emit(f"{rep.name}: library disagreement: {problem}",
             hint="raise the period or the library's delay_steps until "
                  "the measured netlist fits the step model")


@rule("TIM006", layer="timing", severity=Severity.WARNING,
      title="arrival beyond the chain allowance")
def check_chain_allowance(ctx: LintContext, emit: Emit) -> None:
    """An endpoint's arrival exceeds the worst single-step depth the
    library prices: a generous user-chosen period hides chaining the
    step-based cost model never accounted for."""
    rep = cached_timing(ctx)
    if rep is None or rep.chain_allowance <= 0.0:
        return
    deep = [e for e in rep.endpoints
            if e.arrival is not None and e.arrival > rep.chain_allowance]
    deep.sort(key=lambda e: (-e.arrival, e.name))  # type: ignore[operator]
    for e in deep[:MAX_FINDINGS]:
        emit(f"{rep.name}: {e.kind} endpoint {e.name!r} arrives at "
             f"{e.arrival:.2f}, beyond the {rep.chain_allowance:.2f} gate "
             f"units one control step accommodates",
             location=e.name,
             hint="the period masks operation chaining the library's "
                  "step model does not price; check delay_steps")

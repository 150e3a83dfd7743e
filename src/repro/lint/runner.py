"""Collect-all checkers: run a layer's rules over one representation.

Entry points by granularity:

* :func:`lint_dfg`, :func:`lint_schedule`, :func:`lint_binding`,
  :func:`lint_netlist`, :func:`lint_datapath` — audit one intermediate
  representation;
* :func:`lint_design` — audit a bound, scheduled ETPN design point
  (schedule + binding + equivalence + testability smells);
* :func:`lint_pipeline` — audit everything derivable from a DFG:
  the graph itself, the default design built from it, and the expanded
  gate-level netlist.  This is what ``repro-hlts lint`` runs.

If deriving a downstream view blows up (a broken DFG cannot be
scheduled, an inconsistent binding crashes the data-path builder), the
failure is reported as diagnostic ``LNT001`` instead of propagating, so
one lint run always yields a complete report.
"""

from __future__ import annotations

from .diagnostic import Diagnostic, LintReport, Severity
from .registry import LintContext, run_layer

#: Code used when a pipeline stage cannot even be constructed.
PIPELINE_FAILURE_CODE = "LNT001"


def _pipeline_failure(name: str, stage: str, reason: object) -> Diagnostic:
    return Diagnostic(code=PIPELINE_FAILURE_CODE, severity=Severity.ERROR,
                      layer="pipeline", location=stage,
                      message=f"{name}: cannot build the {stage}: {reason}",
                      hint="fix the upstream errors first")


# ----------------------------------------------------------------------
# Single-representation checkers
# ----------------------------------------------------------------------
def lint_dfg(dfg) -> LintReport:
    """Run every DFG-layer rule over ``dfg``."""
    return run_layer("dfg", LintContext(name=dfg.name, dfg=dfg))


def lint_schedule(dfg, steps: dict[str, int]) -> LintReport:
    """Run every schedule-layer rule over ``steps``."""
    return run_layer("sched", LintContext(name=dfg.name, dfg=dfg,
                                          steps=steps))


def lint_binding(dfg, steps: dict[str, int], binding) -> LintReport:
    """Run every binding-layer rule over ``binding``."""
    return run_layer("binding", LintContext(name=dfg.name, dfg=dfg,
                                            steps=steps, binding=binding))


def lint_netlist(netlist) -> LintReport:
    """Run every gate-layer rule over ``netlist``."""
    return run_layer("gates", LintContext(name=netlist.name,
                                          netlist=netlist))


def lint_datapath(datapath, depth_limit: float = 8.0) -> LintReport:
    """Run every testability-layer rule over ``datapath``."""
    return run_layer("testability",
                     LintContext(name=datapath.dfg.name, datapath=datapath,
                                 depth_limit=depth_limit))


def run_analysis_layer(ctx: LintContext) -> LintReport:
    """Run the analysis layer on a prepared context, reporting skips.

    Shared with :func:`repro.analysis.verify.analyze_design`, which
    inspects the same context afterwards to recover the memoised
    analysis objects.
    """
    report = run_layer("analysis", ctx)
    reason = ctx.cache.get("analysis.certificate_error")
    if ctx.cache.get("analysis.certificate") is None and reason:
        report.add(_pipeline_failure(ctx.name, "equivalence certificate",
                                     reason))
    return report


# ----------------------------------------------------------------------
# Aggregate checkers
# ----------------------------------------------------------------------
def lint_design(design, depth_limit: float = 8.0) -> LintReport:
    """Audit one ETPN design point across every derivable layer.

    Checks the schedule, the binding, the equivalence certificate and
    the testability smells of the data path.  Derivation failures become
    ``LNT001`` diagnostics.
    """
    dfg = design.dfg
    report = lint_schedule(dfg, design.steps)
    report.extend(lint_binding(dfg, design.steps, design.binding))
    shared = LintContext(name=dfg.name, dfg=dfg, steps=design.steps,
                         binding=design.binding)
    try:
        report.extend(run_analysis_layer(shared))
    except Exception as exc:
        report.add(_pipeline_failure(dfg.name, "equivalence certificate",
                                     exc))
    try:
        report.extend(lint_datapath(design.datapath, depth_limit))
    except Exception as exc:
        report.add(_pipeline_failure(dfg.name, "data path", exc))
    return report


def lint_pipeline(dfg, bits: int = 8, gates: bool = True,
                  depth_limit: float = 8.0) -> LintReport:
    """Audit the full synthesis pipeline seeded from ``dfg``.

    Lints the DFG; when it is error-free, builds the default design
    (ASAP schedule, one-to-one allocation) and lints it, then expands
    the design to RTL and gates and lints the netlist.

    Args:
        dfg: the behavioural data-flow graph.
        bits: data-path width used for the gate-level expansion.
        gates: set False to skip the (comparatively slow) gate layer.
        depth_limit: threshold for the TST002 deep-path rule.
    """
    report = lint_dfg(dfg)
    if report.has_errors:
        return report  # downstream views are not constructible

    from ..etpn.from_dfg import default_design
    try:
        design = default_design(dfg)
    except Exception as exc:
        report.add(_pipeline_failure(dfg.name, "default design", exc))
        return report
    report.extend(lint_design(design, depth_limit))

    if gates and not report.has_errors:
        from ..gates.expand import expand_to_gates
        from ..rtl.generate import generate_rtl
        try:
            netlist = expand_to_gates(generate_rtl(design, bits))
        except Exception as exc:
            report.add(_pipeline_failure(dfg.name, "gate netlist", exc))
            return report
        report.extend(lint_netlist(netlist))
    return report

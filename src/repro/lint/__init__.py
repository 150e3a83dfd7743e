"""repro.lint — unified design-rule checking across every IR layer.

A Verilator-style lint pass for the synthesis pipeline: instead of the
raise-on-first-violation validators scattered through the library, the
rules here audit a whole representation in one pass and report *every*
finding as a :class:`Diagnostic` with a stable code, a severity and a
fix hint.  The legacy validators (``validate_dfg``,
``validate_binding``, ``GateNetlist.check_complete``) now delegate to
these rules, so the two APIs can never disagree.

Layers and code prefixes::

    DFG  data-flow graph          SCH  schedule       BND  binding
    EQV  value-flow equivalence   GAT  gate netlist   TST  testability
    LNT  pipeline-stage failure

See ``repro-hlts lint --list-rules`` or DESIGN.md for the full table.
"""

from .diagnostic import Diagnostic, LintReport, Severity
from .registry import (LAYERS, LintContext, Rule, all_rules, rule,
                       rules_for_layer, run_layer)
from .runner import (PIPELINE_FAILURE_CODE, lint_binding, lint_datapath,
                     lint_design, lint_dfg, lint_netlist, lint_pipeline,
                     lint_schedule, run_analysis_layer)

__all__ = [
    "Diagnostic", "LintReport", "Severity",
    "LAYERS", "LintContext", "Rule", "all_rules", "rule",
    "rules_for_layer", "run_layer",
    "PIPELINE_FAILURE_CODE", "lint_binding", "lint_datapath",
    "lint_design", "lint_dfg", "lint_netlist", "lint_pipeline",
    "lint_schedule", "run_analysis_layer",
]

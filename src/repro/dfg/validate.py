"""Whole-graph validation for data-flow graphs.

The invariants live in :mod:`repro.lint.rules_dfg` (codes
``DFG001``-``DFG009``); this module keeps the raise-style API existing
callers rely on.  Unlike the original first-error version,
:func:`validate_dfg` now collects *every* violated rule and raises one
:class:`~repro.errors.DFGError` listing all of them.
"""

from __future__ import annotations

from ..errors import DFGError


def validate_dfg(dfg) -> None:
    """Check global consistency of a DFG.

    Rules enforced (the lint layer's error rules):

    * every operand and destination variable exists in the variable
      table;
    * condition variables are defined only by comparisons and never feed
      arithmetic (they are controller inputs, not data);
    * the flow-dependence relation is acyclic (a loop body is
      straight-line; the loop back-edge lives in the control part);
    * a loop condition, when declared, names a condition variable;
    * at least one primary input and one operation exist;
    * operand counts match each operation's arity.

    Raises:
        DFGError: listing every violated rule (not just the first).
    """
    from ..lint.registry import LintContext, check_layer
    check_layer("dfg", LintContext(name=dfg.name, dfg=dfg), DFGError)

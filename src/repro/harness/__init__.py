"""Experiment harness: table/figure regeneration for the paper's §5.

:func:`~repro.harness.experiment.run_cell` produces one table cell.
Grids of cells run through :func:`~repro.runtime.run_journaled_grid`,
whose one cell evaluator turns each cell into its journal record.
"""

from .experiment import (CellResult, ExperimentConfig, FLOW_ORDER,
                         PAPER_PARAMS, run_cell, synthesize_flow,
                         synthesize_flow_result)
from .figures import render_lifetimes, render_schedule, render_sharing
from .report import load_rows, render_report, shape_checks, write_report
from .tables import format_allocation, render_summary, render_table

__all__ = [
    "FLOW_ORDER",
    "PAPER_PARAMS",
    "CellResult",
    "ExperimentConfig",
    "format_allocation",
    "load_rows",
    "render_lifetimes",
    "render_schedule",
    "render_sharing",
    "render_summary",
    "render_report",
    "render_table",
    "run_cell",
    "shape_checks",
    "synthesize_flow",
    "synthesize_flow_result",
    "write_report",
]

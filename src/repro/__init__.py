"""repro — integrated scheduling and allocation for high-level test synthesis.

A complete reimplementation of Yang & Peng (DATE 1998): the ETPN design
representation, CC/SC/CO/SO testability analysis, the C/O balance
allocation principle, merge-sort rescheduling with the SR1/SR2
enhancement strategy, the integrated synthesis algorithm, the CAMAD /
FDS / mobility-path comparison flows, and the full downstream substrate
(RTL generation, gate expansion, stuck-at fault simulation, random +
PODEM ATPG) needed to regenerate the paper's tables and figures.

Typical use::

    from repro import load_benchmark, synthesize, SynthesisParams

    dfg = load_benchmark("diffeq")
    result = synthesize(dfg, SynthesisParams(k=3, alpha=2, beta=1))
    print(result.design.summary())
"""

from .bench import load as load_benchmark
from .cost import CostModel, ModuleLibrary
from .dfg import DFG, DFGBuilder, OpKind
from .etpn import Design, default_design
from .lint import Diagnostic, LintReport, Severity, lint_design, lint_pipeline
from .synth import (SynthesisParams, SynthesisResult, run_approach1,
                    run_approach2, run_camad, run_flow, run_ours, synthesize)
from .testability import TestabilityAnalysis, analyze

__version__ = "1.0.0"

__all__ = [
    "DFG",
    "DFGBuilder",
    "CostModel",
    "Design",
    "Diagnostic",
    "LintReport",
    "ModuleLibrary",
    "OpKind",
    "Severity",
    "SynthesisParams",
    "SynthesisResult",
    "TestabilityAnalysis",
    "analyze",
    "default_design",
    "lint_design",
    "lint_pipeline",
    "load_benchmark",
    "run_approach1",
    "run_approach2",
    "run_camad",
    "run_flow",
    "run_ours",
    "synthesize",
]

"""The paper's synthesis algorithm, candidates, mergers and baselines."""

from .algorithm import SynthesisParams, synthesize
from .baselines import (FLOWS, run_approach1, run_approach2, run_camad,
                        run_flow, run_ours)
from .explore import DesignPoint, explore, pareto_front, render_front
from .candidates import (CandidatePair, compatible_pairs, rank_candidates,
                         rank_candidates_connectivity)
from .merger import (MergeOutcome, try_merge, try_merge_modules,
                     try_merge_registers)
from .result import MergeRecord, SkippedCandidate, SynthesisResult

__all__ = [
    "FLOWS",
    "CandidatePair",
    "DesignPoint",
    "MergeOutcome",
    "MergeRecord",
    "SkippedCandidate",
    "SynthesisParams",
    "SynthesisResult",
    "compatible_pairs",
    "explore",
    "pareto_front",
    "render_front",
    "rank_candidates",
    "rank_candidates_connectivity",
    "run_approach1",
    "run_approach2",
    "run_camad",
    "run_flow",
    "run_ours",
    "synthesize",
    "try_merge",
    "try_merge_modules",
    "try_merge_registers",
]

"""Testability analysis and the C/O balance allocation principle."""

from .analysis import CTF, OTF, TestabilityAnalysis, analyze
from .balance import BalanceScore, balance_score, merged_testability, rank_pairs
from .depth import (RegisterDepth, max_sequential_depth, register_depths,
                    sequential_depth_metric)
from .metrics import LineTestability, NodeTestability, UNREACHABLE_DEPTH

__all__ = [
    "CTF",
    "OTF",
    "BalanceScore",
    "LineTestability",
    "NodeTestability",
    "RegisterDepth",
    "TestabilityAnalysis",
    "UNREACHABLE_DEPTH",
    "analyze",
    "balance_score",
    "max_sequential_depth",
    "merged_testability",
    "rank_pairs",
    "register_depths",
    "sequential_depth_metric",
]

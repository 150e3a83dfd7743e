"""Testability analysis and the C/O balance allocation principle."""

from .analysis import CTF, OTF, TestabilityAnalysis, analyze
from .balance import BalanceScore, balance_score, merged_testability
from .depth import RegisterDepth, register_depths, sequential_depth_metric
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
    "merged_testability",
    "register_depths",
    "sequential_depth_metric",
]

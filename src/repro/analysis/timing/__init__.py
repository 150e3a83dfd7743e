"""Static timing analysis over gate netlists.

See DESIGN.md §14.  Public surface:

* :func:`analyze_timing` / :class:`TimingReport` — the engine;
* :class:`DelayTable` / :func:`default_period` — the delay model and
  its derivation from the module library;
* :class:`ConeCache` — persistent cone memoisation for incremental
  re-analysis;
* :func:`merged_module_fits` — the Algorithm 1 cost-model hook behind
  ``SynthesisParams(check_timing=True)``.
"""

from .delays import (DEFAULT_TABLE, DelayTable, chain_allowance,
                     class_depth, default_period, implied_steps,
                     kind_depth, library_disagreements, mux_depth,
                     step_overhead)
from .engine import ConeCache, analyze_timing
from .costcheck import merged_module_fits, module_depth
from .report import EndpointTiming, PathStep, TimingPath, TimingReport

__all__ = [
    "DEFAULT_TABLE", "DelayTable", "chain_allowance", "class_depth",
    "default_period", "implied_steps", "kind_depth",
    "library_disagreements", "mux_depth", "step_overhead",
    "ConeCache", "analyze_timing", "merged_module_fits", "module_depth",
    "EndpointTiming", "PathStep", "TimingPath", "TimingReport",
]

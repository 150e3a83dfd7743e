"""Static timing analysis over gate netlists.

See DESIGN.md §14.  Public surface:

* :func:`analyze_timing` / :class:`TimingReport` — the engine;
* :class:`DelayTable` / :func:`default_period` — the delay model and
  its derivation from the module library.
"""

from .delays import (DEFAULT_TABLE, DelayTable, chain_allowance,
                     class_depth, default_period, implied_steps,
                     kind_depth, library_disagreements, mux_depth,
                     step_overhead)
from .engine import analyze_timing
from .report import EndpointTiming, PathStep, TimingPath, TimingReport

__all__ = [
    "DEFAULT_TABLE", "DelayTable", "chain_allowance", "class_depth",
    "default_period", "implied_steps", "kind_depth",
    "library_disagreements", "mux_depth", "step_overhead",
    "analyze_timing",
    "EndpointTiming", "PathStep", "TimingPath", "TimingReport",
]

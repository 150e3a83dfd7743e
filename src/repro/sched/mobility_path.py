"""Mobility-path scheduling (Lee et al. 1992) — reconstruction.

The paper's Approach 2 baseline schedules "for easy testability": the
original mobility-path algorithm walks operations in mobility order and
places each to support two rules — (1) registers should each hold at
least one primary-input or primary-output variable, and (2) the
sequential depth from a controllable to an observable register should
shrink.  The exact 1992 pseudo-code is not in the DATE'98 paper, so
this module reconstructs it in the same spirit:

* start from the resource-balanced FDS schedule (same latency);
* greedily move mobile operations to the step that minimises, in order,
  (a) the total variable lifetime span — shorter lifetimes mean values
  reach an observable register in fewer clocks (rule 2 in the time
  domain) — and (b) the register count a left-edge packing would need;
* iterate until no single-op move improves the objective.

The reconstruction is documented in DESIGN.md §3.
"""

from __future__ import annotations

from ..dfg import DFG, UnitClass, unit_class
from ..dfg.analysis import critical_path_length, edge_latency
from ..dfg.lifetime import variable_lifetimes
from .asap_alap import frames
from .fds import fds_schedule


def peak_usage(dfg: DFG, steps: dict[str, int]) -> dict[UnitClass, int]:
    """Maximum number of same-class ops sharing any control step."""
    usage: dict[tuple[UnitClass, int], int] = {}
    for op in dfg:
        key = (unit_class(op.kind), steps[op.op_id])
        usage[key] = usage.get(key, 0) + 1
    peaks: dict[UnitClass, int] = {}
    for (cls, _), count in usage.items():
        peaks[cls] = max(peaks.get(cls, 0), count)
    return peaks


def _objective(dfg: DFG, steps: dict[str, int]) -> tuple[int, float, int]:
    from ..alloc.left_edge import left_edge  # local import: avoid cycle

    # Unit concurrency first: Approach 2 keeps Approach 1's module
    # allocation, so moves must not demand extra functional units.
    units = sum(peak_usage(dfg, steps).values())
    lifetimes = variable_lifetimes(dfg, steps)
    span = sum(lt.span for lt in lifetimes.values())
    registers = len(set(left_edge(lifetimes).values()))
    return (units, span, registers)


def _legal_move(dfg: DFG, steps: dict[str, int], op_id: str,
                target: int) -> bool:
    for edge in dfg.predecessors(op_id):
        if steps[edge.src] + edge_latency(dfg, edge) > target:
            return False
    for edge in dfg.successors(op_id):
        if target + edge_latency(dfg, edge) > steps[edge.dst]:
            return False
    return True


def mobility_path_schedule(dfg: DFG, horizon: int | None = None
                           ) -> dict[str, int]:
    """Schedule ``dfg`` with the testability-aware mobility heuristic."""
    if horizon is None:
        horizon = critical_path_length(dfg)
    steps = dict(fds_schedule(dfg, horizon))
    best = _objective(dfg, steps)
    improved = True
    while improved:
        improved = False
        frame = frames(dfg, horizon)
        for op_id in sorted(steps):
            lo, hi = frame[op_id]
            if lo == hi:
                continue
            current = steps[op_id]
            for target in range(lo, hi + 1):
                if target == current:
                    continue
                if not _legal_move(dfg, steps, op_id, target):
                    continue
                steps[op_id] = target
                candidate = _objective(dfg, steps)
                if candidate < best:
                    best = candidate
                    improved = True
                    current = target
                else:
                    steps[op_id] = current
    return steps

"""Structural analyses of a data-flow graph.

These are schedule-independent: topological order, ASAP/ALAP bounds for
an unconstrained schedule, and the DFG critical-path length.  They are
used by every scheduler and by the synthesis algorithm's ΔE estimation.
"""

from __future__ import annotations

from ..errors import DFGError
from .graph import DFG, DependenceEdge


def edge_latency(dfg: DFG, edge: DependenceEdge,
                 delays: dict[str, int] | None = None) -> int:
    """Minimum control-step distance implied by a dependence edge.

    Flow and output dependences require the consumer/redefiner to start
    at least ``delay(src)`` steps after the producer; anti dependences
    allow the redefinition in the same step (the old value is read during
    the step, the new one is clocked in at its end).
    """
    if edge.kind == "anti":
        return 0
    delay = 1 if delays is None else delays.get(edge.src, 1)
    return delay


def topological_order(dfg: DFG) -> list[str]:
    """Operations in a dependence-respecting order (Kahn's algorithm)."""
    indegree = {op_id: len(dfg.predecessors(op_id)) for op_id in dfg.operations}
    ready = sorted(op_id for op_id, d in indegree.items() if d == 0)
    order: list[str] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        for edge in dfg.successors(node):
            indegree[edge.dst] -= 1
            if indegree[edge.dst] == 0:
                # Insert keeping deterministic (sorted) tie-breaking.
                lo, hi = 0, len(ready)
                while lo < hi:
                    mid = (lo + hi) // 2
                    if ready[mid] < edge.dst:
                        lo = mid + 1
                    else:
                        hi = mid
                ready.insert(lo, edge.dst)
    if len(order) != len(dfg.operations):
        raise DFGError(f"{dfg.name}: dependence cycle")
    return order


def asap_steps(dfg: DFG, delays: dict[str, int] | None = None) -> dict[str, int]:
    """Earliest legal control step of each operation (steps count from 0)."""
    steps: dict[str, int] = {}
    for op_id in topological_order(dfg):
        earliest = 0
        for edge in dfg.predecessors(op_id):
            earliest = max(earliest, steps[edge.src] + edge_latency(dfg, edge, delays))
        steps[op_id] = earliest
    return steps


def alap_steps(dfg: DFG, horizon: int | None = None,
               delays: dict[str, int] | None = None) -> dict[str, int]:
    """Latest legal control step of each operation within ``horizon`` steps.

    ``horizon`` defaults to the unconstrained critical-path length, which
    makes ALAP the mirror of ASAP, with alap - asap ≥ 0.
    """
    asap = asap_steps(dfg, delays)
    if horizon is None:
        horizon = critical_path_length(dfg, delays)
    last_step = horizon - 1
    steps: dict[str, int] = {}
    for op_id in reversed(topological_order(dfg)):
        latest = last_step
        for edge in dfg.successors(op_id):
            latest = min(latest, steps[edge.dst] - edge_latency(dfg, edge, delays))
        if latest < asap[op_id]:
            raise DFGError(
                f"{dfg.name}: horizon {horizon} infeasible for {op_id}")
        steps[op_id] = latest
    return steps


def critical_path_length(dfg: DFG,
                         delays: dict[str, int] | None = None) -> int:
    """Length, in control steps, of the DFG's unconstrained schedule."""
    asap = asap_steps(dfg, delays)
    if not asap:
        return 0
    end = 0
    for op_id, start in asap.items():
        delay = 1 if delays is None else delays.get(op_id, 1)
        end = max(end, start + delay)
    return end

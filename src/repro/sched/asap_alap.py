"""Time-frame computation with fixed ops.

The frame computation force-directed scheduling needs: earliest/latest
steps when some operations are already fixed.
"""

from __future__ import annotations

from ..dfg import DFG
from ..dfg.analysis import edge_latency, topological_order
from ..errors import ScheduleError


def frames(dfg: DFG, horizon: int,
           fixed: dict[str, int] | None = None
           ) -> dict[str, tuple[int, int]]:
    """[earliest, latest] step of each op given some fixed assignments.

    Raises:
        ScheduleError: when a fixed assignment makes the horizon
            infeasible.
    """
    fixed = fixed or {}
    order = topological_order(dfg)
    earliest: dict[str, int] = {}
    for op_id in order:
        bound = 0
        for edge in dfg.predecessors(op_id):
            bound = max(bound, earliest[edge.src] + edge_latency(edge))
        if op_id in fixed:
            if fixed[op_id] < bound:
                raise ScheduleError(f"{dfg.name}: {op_id} fixed at "
                                    f"{fixed[op_id]} before its earliest "
                                    f"step {bound}")
            bound = fixed[op_id]
        earliest[op_id] = bound
    latest: dict[str, int] = {}
    for op_id in reversed(order):
        bound = horizon - 1
        for edge in dfg.successors(op_id):
            bound = min(bound, latest[edge.dst] - edge_latency(edge))
        if op_id in fixed:
            if fixed[op_id] > bound:
                raise ScheduleError(f"{dfg.name}: {op_id} fixed at "
                                    f"{fixed[op_id]} after its latest step "
                                    f"{bound}")
            bound = fixed[op_id]
        latest[op_id] = bound
        if latest[op_id] < earliest[op_id]:
            raise ScheduleError(f"{dfg.name}: empty frame for {op_id} at "
                                f"horizon {horizon}")
    return {op_id: (earliest[op_id], latest[op_id]) for op_id in order}

"""Structural analyses of a data-flow graph.

These are schedule-independent: the dependence-edge latency, topological
order, the ASAP schedule and the DFG critical-path length.  They are
used by every scheduler and by the synthesis algorithm's ΔE estimation.
"""

from __future__ import annotations

from ..errors import DFGError
from .graph import DFG, DependenceEdge


def edge_latency(edge: DependenceEdge) -> int:
    """Minimum control-step distance implied by a dependence edge.

    Every operation takes one control step: its result is clocked in at
    the end of the step it runs in.  So flow and output dependences
    require the consumer/redefiner to start at least one step after the
    producer, and anti dependences allow the redefinition in the same
    step (the old value is read during the step, the new one is clocked
    in at its end).
    """
    return 0 if edge.kind == "anti" else 1


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


def asap_steps(dfg: DFG) -> dict[str, int]:
    """Earliest legal control step of each operation (steps count from 0)."""
    steps: dict[str, int] = {}
    for op_id in topological_order(dfg):
        earliest = 0
        for edge in dfg.predecessors(op_id):
            earliest = max(earliest, steps[edge.src] + edge_latency(edge))
        steps[op_id] = earliest
    return steps


def critical_path_length(dfg: DFG) -> int:
    """Length, in control steps, of the DFG's unconstrained schedule:
    its last ASAP step plus one."""
    asap = asap_steps(dfg)
    return max(asap.values()) + 1 if asap else 0

"""Force-directed scheduling (Paulin & Knight 1989).

The paper's Approach 1 baseline: scheduling that balances the expected
number of concurrently-busy units of each class over the control steps,
with no testability consideration.  Implementation follows the original
formulation: distribution graphs built from uniform step probabilities
within each operation's time frame, and the assignment with the lowest
total force (self force plus implied predecessor/successor forces) is
fixed at each iteration.
"""

from __future__ import annotations

from ..dfg import DFG, unit_class, UnitClass
from ..dfg.analysis import critical_path_length
from ..errors import ScheduleError
from .asap_alap import frames


def _distribution_graphs(dfg: DFG, horizon: int,
                         frame: dict[str, tuple[int, int]]
                         ) -> dict[UnitClass, list[float]]:
    """DG(class, step): expected unit usage per step."""
    graphs: dict[UnitClass, list[float]] = {}
    for op in dfg:
        cls = unit_class(op.kind)
        graph = graphs.setdefault(cls, [0.0] * horizon)
        lo, hi = frame[op.op_id]
        probability = 1.0 / (hi - lo + 1)
        for step in range(lo, hi + 1):
            graph[step] += probability
    return graphs


def _self_force(graph: list[float], lo: int, hi: int, target: int) -> float:
    """Force of narrowing a frame [lo, hi] to the single step ``target``."""
    old_probability = 1.0 / (hi - lo + 1)
    force = 0.0
    for step in range(lo, hi + 1):
        new_probability = 1.0 if step == target else 0.0
        force += graph[step] * (new_probability - old_probability)
    return force


def fds_schedule(dfg: DFG, horizon: int | None = None) -> dict[str, int]:
    """Schedule ``dfg`` with force-directed scheduling.

    Args:
        dfg: the data-flow graph.
        horizon: latency constraint; defaults to the critical-path
            length (the latency-optimal setting used by the paper's
            area-optimised experiments).

    Returns:
        A complete schedule minimising peak unit concurrency.
    """
    if horizon is None:
        horizon = critical_path_length(dfg)
    fixed: dict[str, int] = {}
    remaining = set(dfg.operations)
    while remaining:
        frame = frames(dfg, horizon, fixed)
        graphs = _distribution_graphs(dfg, horizon, frame)
        # Operations whose frame is a single step are implicitly fixed.
        for op_id in sorted(remaining):
            lo, hi = frame[op_id]
            if lo == hi:
                fixed[op_id] = lo
                remaining.discard(op_id)
        if not remaining:
            break
        best: tuple[float, str, int] | None = None
        for op_id in sorted(remaining):
            lo, hi = frame[op_id]
            cls = unit_class(dfg.operation(op_id).kind)
            for target in range(lo, hi + 1):
                force = _self_force(graphs[cls], lo, hi, target)
                force += _implied_forces(dfg, graphs, frame, op_id, target,
                                         horizon, fixed)
                key = (force, op_id, target)
                if best is None or key < best:
                    best = key
        _, op_id, target = best
        fixed[op_id] = target
        remaining.discard(op_id)
    return fixed


def _implied_forces(dfg: DFG, graphs, frame, op_id: str, target: int,
                    horizon: int, fixed: dict[str, int]) -> float:
    """Predecessor/successor forces of fixing ``op_id`` at ``target``.

    Fixing an operation narrows the frames of its neighbours; the
    implied force is the sum of their self forces under the narrowed
    frames (Paulin & Knight §IV-C).
    """
    try:
        narrowed = frames(dfg, horizon, {**fixed, op_id: target})
    except ScheduleError:
        return float("inf")
    force = 0.0
    for edge in dfg.predecessors(op_id) + dfg.successors(op_id):
        other = edge.src if edge.dst == op_id else edge.dst
        if other in fixed or other == op_id:
            continue
        lo, hi = frame[other]
        new_lo, new_hi = narrowed[other]
        if (new_lo, new_hi) == (lo, hi):
            continue
        cls = unit_class(dfg.operation(other).kind)
        old_probability = 1.0 / (hi - lo + 1)
        new_probability = 1.0 / (new_hi - new_lo + 1)
        for step in range(lo, hi + 1):
            inside = new_lo <= step <= new_hi
            force += graphs[cls][step] * (
                (new_probability if inside else 0.0) - old_probability)
    return force

"""Merger transformations with rescheduling (Algorithm 1, steps 7-14).

A merger folds two modules or two registers into one.  The fold imposes
scheduling constraints (distinct steps / disjoint lifetimes) which are
discharged by the merge-sort rescheduling of §4.3: the two nodes'
existing sequential orders are interleaved, and where the interleaving
is ambiguous (operations currently in the same step, lifetimes
currently overlapping) the controllability/observability enhancement
strategy picks the order — realised here as preferring the candidate
whose rescheduled design has the smaller time-domain sequential depth
(total variable lifetime span: how long values linger before reaching
an observable register), falling back to the smallest critical-path
increase exactly as the paper specifies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cost import CostModel
from ..errors import BindingError
from ..etpn.design import Design
from ..runtime.chaos import chaos_point
from ..sched.resched import (current_module_orders, lifetime_orders,
                             merge_order_candidates, reschedule)


@dataclass(frozen=True)
class MergeOutcome:
    """The result of one applied (trial) merger."""

    design: Design
    kind: str                   # "module" or "register"
    kept: str
    absorbed: str
    delta_e: float
    delta_h: float
    order: tuple[str, ...]      # chosen execution/lifetime order

    def delta_c(self, alpha: float, beta: float) -> float:
        """ΔC = α·ΔE + β·ΔH, the paper's selection objective."""
        return alpha * self.delta_e + beta * self.delta_h


def _schedule_depth(design: Design) -> float:
    """Time-domain SR1 proxy: total steps values spend in registers."""
    return float(sum(lt.span for lt in design.lifetimes.values()))


def _pick_best(design: Design, candidates: list[Design],
               strategy: str = "enhance") -> Design | None:
    """Choose between merge-order candidates.

    ``"enhance"`` applies the C/O enhancement strategy (SR1/SR2 via the
    time-domain depth proxy, falling back to the smallest critical-path
    increase); ``"first"`` takes the first feasible order — the naive
    baseline the A2 ablation bench compares against.
    """
    if not candidates:
        return None
    if strategy == "first":
        return candidates[0]
    base_e = design.execution_time

    def strategy_key(cand: Design) -> tuple[float, float]:
        return (_schedule_depth(cand), cand.execution_time - base_e)

    return min(candidates, key=strategy_key)


def try_merge_modules(design: Design, keep: str, absorb: str,
                      cost_model: CostModel,
                      strategy: str = "enhance") -> MergeOutcome | None:
    """Attempt to merge two modules; None when infeasible.

    Infeasible cases: incompatible unit classes, or no interleaving of
    the two execution orders admits a legal schedule.
    """
    dfg = design.dfg
    try:
        new_binding = design.binding.merge_modules(keep, absorb)
        from ..alloc.binding import module_unit_class
        module_unit_class(dfg, new_binding, keep)
    except BindingError:
        return None
    seq_keep = sorted(design.binding.ops_on(keep),
                      key=lambda o: (design.steps[o], o))
    seq_absorb = sorted(design.binding.ops_on(absorb),
                        key=lambda o: (design.steps[o], o))
    module_orders = current_module_orders(dfg, design.binding, design.steps)
    module_orders.pop(absorb, None)
    register_orders = lifetime_orders(design.binding, design.lifetimes)
    candidates: list[Design] = []
    orders: dict[int, tuple[str, ...]] = {}
    for order in merge_order_candidates(seq_keep, seq_absorb, design.steps):
        order = chaos_point("synth.pre_reschedule", order)
        steps = reschedule(dfg, new_binding,
                           {**module_orders, keep: order}, register_orders)
        if steps is None:
            continue
        cand = design.replaced(steps=steps, binding=new_binding)
        orders[id(cand)] = tuple(order)
        candidates.append(cand)
    best = _pick_best(design, candidates, strategy)
    if best is None:
        return None
    delta_e, delta_h = cost_model.delta(design, best)
    return MergeOutcome(best, "module", keep, absorb, delta_e, delta_h,
                        orders[id(best)])


def try_merge_registers(design: Design, keep: str, absorb: str,
                        cost_model: CostModel,
                        strategy: str = "enhance") -> MergeOutcome | None:
    """Attempt to merge two registers; None when infeasible.

    The paper's impossible cases — circular dependences between the
    lifetime-determining operations, or one operation reading both
    variables — surface as constraint-graph cycles and yield None.
    """
    dfg = design.dfg
    try:
        new_binding = design.binding.merge_registers(keep, absorb)
    except BindingError:
        return None
    lifetimes = design.lifetimes

    def birth(var: str) -> int:
        # A declared-but-never-used variable has no lifetime: it can
        # share with anything, so order it first.
        lt = lifetimes.get(var)
        return lt.birth if lt is not None else -(10 ** 9)

    seq_keep = sorted(design.binding.vars_in(keep),
                      key=lambda v: (birth(v), v))
    seq_absorb = sorted(design.binding.vars_in(absorb),
                        key=lambda v: (birth(v), v))
    birth_rank = {v: birth(v) for v in seq_keep + seq_absorb}
    module_orders = current_module_orders(dfg, design.binding, design.steps)
    register_orders = lifetime_orders(design.binding, lifetimes)
    register_orders.pop(absorb, None)
    candidates: list[Design] = []
    orders: dict[int, tuple[str, ...]] = {}
    for order in merge_order_candidates(seq_keep, seq_absorb, birth_rank):
        order = chaos_point("synth.pre_reschedule", order)
        steps = reschedule(dfg, new_binding, module_orders,
                           {**register_orders, keep: order})
        if steps is None:
            continue
        cand = design.replaced(steps=steps, binding=new_binding)
        orders[id(cand)] = tuple(order)
        candidates.append(cand)
    best = _pick_best(design, candidates, strategy)
    if best is None:
        return None
    delta_e, delta_h = cost_model.delta(design, best)
    return MergeOutcome(best, "register", keep, absorb, delta_e, delta_h,
                        orders[id(best)])


def try_merge(design: Design, kind: str, node_a: str, node_b: str,
              cost_model: CostModel,
              strategy: str = "enhance") -> MergeOutcome | None:
    """Dispatch on merger kind (``"module"`` or ``"register"``)."""
    if kind == "module":
        return try_merge_modules(design, node_a, node_b, cost_model,
                                 strategy)
    if kind == "register":
        return try_merge_registers(design, node_a, node_b, cost_model,
                                   strategy)
    raise ValueError(f"unknown merger kind {kind!r}")

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

from ..alloc.binding import module_unit_class
from ..cost import CostModel
from ..dfg.lifetime import DefUse
from ..errors import BindingError
from ..etpn.design import Design
from ..runtime.chaos import chaos_point
from ..sched.resched import (ConstraintSkeleton, merge_order_candidates,
                             reschedule)


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


def _schedule_depth(design: Design, def_use: DefUse) -> float:
    """Time-domain SR1 proxy: total steps values spend in registers."""
    return float(sum(lt.span for lt in def_use.lifetimes(design.steps).values()))


def _pick_best(design: Design, candidates: list[Design],
               strategy: str, def_use: DefUse) -> Design | None:
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
        return (_schedule_depth(cand, def_use), cand.execution_time - base_e)

    return min(candidates, key=strategy_key)


def try_merge_modules(design: Design, keep: str, absorb: str,
                      cost_model: CostModel,
                      strategy: str = "enhance",
                      skeleton: ConstraintSkeleton | None = None
                      ) -> MergeOutcome | None:
    """Attempt to merge two modules; None when infeasible.

    Infeasible cases: incompatible unit classes, or no interleaving of
    the two execution orders admits a legal schedule.  ``skeleton`` is
    the DFG's :class:`~repro.sched.resched.ConstraintSkeleton` when the
    caller keeps one.
    """
    dfg = design.dfg
    try:
        new_binding = design.binding.merge_modules(keep, absorb)
        module_unit_class(dfg, new_binding, keep)
    except BindingError:
        return None
    skeleton = skeleton or ConstraintSkeleton(dfg)
    groups = design.binding.module_groups()
    seq_keep = sorted(groups.get(keep, ()),
                      key=lambda o: (design.steps[o], o))
    seq_absorb = sorted(groups[absorb], key=lambda o: (design.steps[o], o))
    module_orders = dict(design.module_orders)
    module_orders.pop(absorb, None)
    register_orders = design.register_orders
    candidates: list[Design] = []
    orders: dict[int, tuple[str, ...]] = {}
    for order in merge_order_candidates(seq_keep, seq_absorb, design.steps):
        order = chaos_point("synth.pre_reschedule", order)
        steps = reschedule(dfg, new_binding,
                           {**module_orders, keep: order}, register_orders,
                           skeleton=skeleton)
        if steps is None:
            continue
        cand = design.replaced(steps=steps, binding=new_binding)
        orders[id(cand)] = tuple(order)
        candidates.append(cand)
    best = _pick_best(design, candidates, strategy, skeleton.def_use)
    if best is None:
        return None
    delta_e, delta_h = cost_model.delta(design, best)
    return MergeOutcome(best, "module", keep, absorb, delta_e, delta_h,
                        orders[id(best)])


def try_merge_registers(design: Design, keep: str, absorb: str,
                        cost_model: CostModel,
                        strategy: str = "enhance",
                        skeleton: ConstraintSkeleton | None = None
                        ) -> MergeOutcome | None:
    """Attempt to merge two registers; None when infeasible.

    The paper's impossible cases — circular dependences between the
    lifetime-determining operations, or one operation reading both
    variables — surface as constraint-graph cycles and yield None.
    ``skeleton`` is as for :func:`try_merge_modules`.
    """
    dfg = design.dfg
    try:
        new_binding = design.binding.merge_registers(keep, absorb)
    except BindingError:
        return None
    skeleton = skeleton or ConstraintSkeleton(dfg)
    lifetimes = design.lifetimes

    def birth(var: str) -> int:
        # A declared-but-never-used variable has no lifetime: it can
        # share with anything, so order it first.
        lt = lifetimes.get(var)
        return lt.birth if lt is not None else -(10 ** 9)

    groups = design.binding.register_groups()
    seq_keep = sorted(groups.get(keep, ()), key=lambda v: (birth(v), v))
    seq_absorb = sorted(groups[absorb], key=lambda v: (birth(v), v))
    birth_rank = {v: birth(v) for v in seq_keep + seq_absorb}
    module_orders = design.module_orders
    register_orders = dict(design.register_orders)
    register_orders.pop(absorb, None)
    candidates: list[Design] = []
    orders: dict[int, tuple[str, ...]] = {}
    for order in merge_order_candidates(seq_keep, seq_absorb, birth_rank):
        order = chaos_point("synth.pre_reschedule", order)
        steps = reschedule(dfg, new_binding, module_orders,
                           {**register_orders, keep: order},
                           skeleton=skeleton)
        if steps is None:
            continue
        cand = design.replaced(steps=steps, binding=new_binding)
        orders[id(cand)] = tuple(order)
        candidates.append(cand)
    best = _pick_best(design, candidates, strategy, skeleton.def_use)
    if best is None:
        return None
    delta_e, delta_h = cost_model.delta(design, best)
    return MergeOutcome(best, "register", keep, absorb, delta_e, delta_h,
                        orders[id(best)])


def try_merge(design: Design, kind: str, node_a: str, node_b: str,
              cost_model: CostModel,
              strategy: str = "enhance",
              skeleton: ConstraintSkeleton | None = None
              ) -> MergeOutcome | None:
    """Dispatch on merger kind (``"module"`` or ``"register"``)."""
    if kind == "module":
        return try_merge_modules(design, node_a, node_b, cost_model,
                                 strategy, skeleton)
    if kind == "register":
        return try_merge_registers(design, node_a, node_b, cost_model,
                                   strategy, skeleton)
    raise ValueError(f"unknown merger kind {kind!r}")

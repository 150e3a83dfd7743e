"""The rescheduler against the reference algorithm it was optimised from.

``reference_build_constraints`` and ``ReferenceConstraintGraph`` below
are the original constraint-graph rescheduler, kept verbatim: every
call groups the binding, walks the DFG's dependence edges, re-derives
each register-order pair's birth and death ops from list copies, keeps
the strongest gap per edge in a dict, and takes the longest path over a
sorted ready list.  The production :func:`repro.sched.resched.reschedule`
must return an equal schedule, or ``None`` where the reference finds a
cycle, and raise where it raises, on:

* random DFGs (multiply-defined variables, loops) under random legal
  bindings, merged by a random module or register pair in either
  merge-sorted order or in a random order;
* every reschedule the merger loop makes on Ex, Dct and Diffeq at
  4 bits.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass, field

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.alloc import Binding
from repro.dfg import DFG, unit_class, variable_lifetimes
from repro.dfg.analysis import asap_steps, edge_latency
from repro.errors import ScheduleError
from repro.harness.experiment import synthesize_flow_result
from repro.sched.resched import (current_module_orders, lifetime_orders,
                                 merge_order_candidates, reschedule)

from .test_properties import dfgs

merger_module = importlib.import_module("repro.synth.merger")


def reference_modules(binding) -> dict[str, list[str]]:
    """Map module id to the sorted op_ids bound to it."""
    grouping: dict[str, list[str]] = {}
    for op_id, module in binding.module_of.items():
        grouping.setdefault(module, []).append(op_id)
    return {m: sorted(ops) for m, ops in sorted(grouping.items())}


def reference_registers(binding) -> dict[str, list[str]]:
    """Map register id to the sorted variables bound to it."""
    grouping: dict[str, list[str]] = {}
    for var, register in binding.register_of.items():
        grouping.setdefault(register, []).append(var)
    return {r: sorted(vs) for r, vs in sorted(grouping.items())}


@dataclass
class ReferenceConstraintGraph:
    """Difference constraints ``step(dst) - step(src) >= gap`` between ops."""

    ops: list[str]
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def add(self, src: str, dst: str, gap: int) -> None:
        """Add a constraint, keeping the strongest gap per edge."""
        if src == dst:
            if gap > 0:
                # step(x) >= step(x) + gap is unsatisfiable.
                self.edges[(src, dst)] = gap
            return
        key = (src, dst)
        if key not in self.edges or self.edges[key] < gap:
            self.edges[key] = gap

    def longest_path_schedule(self) -> dict[str, int] | None:
        """ASAP schedule satisfying all constraints, or None on a cycle."""
        if any(src == dst and gap > 0 for (src, dst), gap in self.edges.items()):
            return None
        successors: dict[str, list[tuple[str, int]]] = {o: [] for o in self.ops}
        indegree = {o: 0 for o in self.ops}
        for (src, dst), gap in self.edges.items():
            if src == dst:
                continue
            successors[src].append((dst, gap))
            indegree[dst] += 1
        ready = sorted(o for o, d in indegree.items() if d == 0)
        steps = {o: 0 for o in self.ops}
        visited = 0
        while ready:
            node = ready.pop(0)
            visited += 1
            for child, gap in successors[node]:
                steps[child] = max(steps[child], steps[node] + gap)
                indegree[child] -= 1
                if indegree[child] == 0:
                    lo, hi = 0, len(ready)
                    while lo < hi:
                        mid = (lo + hi) // 2
                        if ready[mid] < child:
                            lo = mid + 1
                        else:
                            hi = mid
                    ready.insert(lo, child)
        if visited != len(self.ops):
            return None
        return steps


def reference_lifetime_events(dfg: DFG, var: str
                              ) -> tuple[list[str], list[str]]:
    """(birth ops, death ops) of a variable.

    Birth ops: the ops whose step determines the variable's birth — its
    first definition, or every use for an input variable (the earliest
    one decides).  Death ops: every op whose step bounds the death — all
    uses and, for multiply-defined variables, later defs.
    """
    defs = dfg.defs_of(var)
    uses = dfg.uses_of(var)
    variable = dfg.variable(var)
    if variable.is_input and not defs:
        birth = list(uses)
    elif defs:
        birth = [defs[0]]
    else:
        birth = list(uses)
    death = list(uses) + list(defs)
    return birth, death


def reference_serialisation_edges(graph: ReferenceConstraintGraph, dfg: DFG,
                                  earlier: str, later: str) -> None:
    """Constrain lifetime(earlier) to end before lifetime(later) begins.

    With half-open occupation intervals ``(birth, death]`` the condition
    is ``death(earlier) <= birth(later)``.
    """
    _, death_ops = reference_lifetime_events(dfg, earlier)
    birth_ops, _ = reference_lifetime_events(dfg, later)
    earlier_var = dfg.variable(earlier)
    later_is_input = (dfg.variable(later).is_input
                      and not dfg.defs_of(later))
    extra_death = 1 if (earlier_var.is_output and dfg.defs_of(earlier)) else 0
    for death_op in death_ops:
        death_bump = extra_death if death_op in dfg.defs_of(earlier) else 0
        # Death from a plain use happens during the step; a birth by
        # definition in the same step is fine (write at step end).
        base_gap = 0 + death_bump
        for birth_op in birth_ops:
            # An input variable is loaded the step before its first use,
            # so its uses must start strictly after the earlier death.
            gap = base_gap + (1 if later_is_input else 0)
            graph.add(death_op, birth_op, gap)


def reference_build_constraints(dfg: DFG, binding,
                                module_orders: dict[str, list[str]],
                                register_orders: dict[str, list[str]],
                                delays: dict[str, int] | None = None
                                ) -> ReferenceConstraintGraph:
    """Build the full constraint graph for a bound design.

    Raises:
        ScheduleError: when an order list disagrees with the binding.
    """
    graph = ReferenceConstraintGraph(ops=list(dfg.op_order))
    for edge in dfg.edges():
        graph.add(edge.src, edge.dst, edge_latency(dfg, edge))
    for module, ops in reference_modules(binding).items():
        if len(ops) < 2:
            continue
        order = module_orders.get(module)
        if order is None or sorted(order) != sorted(ops):
            raise ScheduleError(f"module {module!r}: order {order} does not "
                                f"cover ops {ops}")
        for first, second in zip(order, order[1:]):
            delay = 1 if delays is None else delays.get(first, 1)
            graph.add(first, second, delay)
    for register, variables in reference_registers(binding).items():
        if len(variables) < 2:
            continue
        order = register_orders.get(register)
        if order is None or sorted(order) != sorted(variables):
            raise ScheduleError(f"register {register!r}: order {order} does "
                                f"not cover variables {variables}")
        for earlier, later in zip(order, order[1:]):
            reference_serialisation_edges(graph, dfg, earlier, later)
    return graph


def reference_reschedule(dfg, binding, module_orders, register_orders,
                         delays=None):
    """The reference schedule, or the ``ScheduleError`` it raises."""
    try:
        graph = reference_build_constraints(dfg, binding, module_orders,
                                            register_orders, delays)
    except ScheduleError as exc:
        return exc
    return graph.longest_path_schedule()


def production_reschedule(dfg, binding, module_orders, register_orders):
    try:
        return reschedule(dfg, binding, module_orders, register_orders)
    except ScheduleError as exc:
        return exc


def assert_same_schedule(dfg, binding, module_orders,
                         register_orders) -> None:
    expected = reference_reschedule(dfg, binding, module_orders,
                                    register_orders)
    actual = production_reschedule(dfg, binding, module_orders,
                                   register_orders)
    if isinstance(expected, ScheduleError):
        assert isinstance(actual, ScheduleError), actual
    else:
        assert actual == expected


def random_legal_binding(dfg: DFG, steps: dict[str, int],
                         rng: random.Random) -> Binding:
    """Modules share only same-class ops in distinct steps, registers
    only variables with disjoint lifetimes."""
    lifetimes = variable_lifetimes(dfg, steps)
    binding = Binding()
    modules: dict[str, list[str]] = {}
    for op_id in rng.sample(dfg.op_order, len(dfg.op_order)):
        cls = unit_class(dfg.operation(op_id).kind)
        fits = [m for m, ops in modules.items()
                if unit_class(dfg.operation(ops[0]).kind) == cls
                and all(steps[o] != steps[op_id] for o in ops)]
        module = rng.choice(fits + [f"M{len(modules)}"])
        modules.setdefault(module, []).append(op_id)
        binding.module_of[op_id] = module
    registers: dict[str, list[str]] = {}
    for var in rng.sample(sorted(lifetimes), len(lifetimes)):
        fits = [r for r, held in registers.items()
                if not any(lifetimes[v].overlaps(lifetimes[var])
                           for v in held)]
        register = rng.choice(fits + [f"R{len(registers)}"])
        registers.setdefault(register, []).append(var)
        binding.register_of[var] = register
    for name, var in dfg.variables.items():
        if var.needs_register() and name not in binding.register_of:
            binding.register_of[name] = f"R_{name}"
    return binding


@dataclass
class MergeCase:
    dfg: DFG
    binding: Binding
    module_orders: dict[str, list[str]]
    register_orders: dict[str, list[str]]


@st.composite
def merge_cases(draw):
    """A random bound DFG, one random merger and one order for it."""
    dfg = draw(dfgs(looped=draw(st.booleans())))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    steps = asap_steps(dfg)
    binding = random_legal_binding(dfg, steps, rng)
    lifetimes = variable_lifetimes(dfg, steps)
    module_orders = current_module_orders(dfg, binding, steps)
    register_orders = lifetime_orders(binding, lifetimes)
    groups = reference_modules(binding)
    classes = {m: unit_class(dfg.operation(ops[0]).kind)
               for m, ops in groups.items()}
    pairs = [("module", a, b) for a in groups for b in groups
             if a < b and classes[a] == classes[b]]
    registers = reference_registers(binding)
    pairs += [("register", a, b) for a in registers for b in registers
              if a < b]
    merged = binding
    if pairs:
        kind, keep, absorb = rng.choice(pairs)
        if kind == "module":
            merged = binding.merge_modules(keep, absorb)
            rank = steps
            seq_keep = sorted(groups[keep], key=lambda o: (steps[o], o))
            seq_absorb = sorted(groups[absorb], key=lambda o: (steps[o], o))
            orders = module_orders
        else:
            merged = binding.merge_registers(keep, absorb)
            rank = {v: lifetimes[v].birth if v in lifetimes else -(10 ** 9)
                    for v in registers[keep] + registers[absorb]}
            seq_keep = sorted(registers[keep], key=lambda v: (rank[v], v))
            seq_absorb = sorted(registers[absorb],
                                key=lambda v: (rank[v], v))
            orders = register_orders
        orders.pop(absorb, None)
        candidates = merge_order_candidates(seq_keep, seq_absorb, rank)
        shuffled = seq_keep + seq_absorb
        rng.shuffle(shuffled)
        orders[keep] = draw(st.sampled_from(candidates + [shuffled]))
    return MergeCase(dfg, merged, module_orders, register_orders)


@settings(max_examples=300, deadline=None)
@given(merge_cases())
def test_random_mergers(case):
    assert_same_schedule(case.dfg, case.binding, case.module_orders,
                         case.register_orders)


@settings(max_examples=100, deadline=None)
@given(merge_cases())
def test_orders_that_do_not_cover_the_binding_raise(case):
    orders = {m: list(ops[:-1]) for m, ops in case.module_orders.items()}
    assert_same_schedule(case.dfg, case.binding, orders,
                         case.register_orders)


@pytest.mark.parametrize("name", ["ex", "dct", "diffeq"])
def test_every_reschedule_of_the_merger_loop(name, monkeypatch):
    real = merger_module.reschedule
    checked = []

    def checking(dfg, binding, module_orders, register_orders, *args,
                 **kwargs):
        actual = real(dfg, binding, module_orders, register_orders, *args,
                      **kwargs)
        expected = reference_reschedule(dfg, binding, module_orders,
                                        register_orders)
        checked.append(actual == expected)
        return actual

    monkeypatch.setattr(merger_module, "reschedule", checking)
    result = synthesize_flow_result(name, "ours", 4)
    assert len(checked) > len(result.history)
    assert all(checked)

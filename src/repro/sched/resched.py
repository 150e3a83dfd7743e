"""Rescheduling under merger-imposed constraints (paper §4.3).

A binding imposes two families of constraints beyond DFG precedence:

* operations sharing a module must occupy distinct control steps, in
  some chosen *execution order*;
* variables sharing a register must have disjoint lifetimes, in some
  chosen *lifetime order*.

Given a binding plus one order per module and per register, those
constraints become plain difference constraints between operation
steps, so the minimum-latency legal schedule is the longest path over a
constraint graph — and an infeasible combination (the paper's "two
lifetimes can never be disjoint" cases, e.g. one operation reading both
variables, or circular dependences between the defining operations)
shows up as a cycle.

The paper's "introducing dummy control steps" corresponds to the
longest-path schedule coming out longer than the previous one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..alloc.binding import Binding
from ..dfg import DFG
from ..dfg.analysis import edge_latency
from ..dfg.lifetime import Lifetime, variable_lifetimes
from ..errors import ScheduleError


@dataclass
class ConstraintGraph:
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


def _lifetime_events(dfg: DFG, var: str) -> tuple[list[str], list[str]]:
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


def _serialisation_edges(graph: ConstraintGraph, dfg: DFG,
                         earlier: str, later: str) -> None:
    """Constrain lifetime(earlier) to end before lifetime(later) begins.

    With half-open occupation intervals ``(birth, death]`` the condition
    is ``death(earlier) <= birth(later)``.
    """
    _, death_ops = _lifetime_events(dfg, earlier)
    birth_ops, _ = _lifetime_events(dfg, later)
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
    # If `earlier` is an output, its defining step + 1 must also precede
    # the later birth even when it has no uses (handled above via defs in
    # death_ops when is_output).


def build_constraints(dfg: DFG, binding: Binding,
                      module_orders: dict[str, list[str]],
                      register_orders: dict[str, list[str]],
                      delays: dict[str, int] | None = None) -> ConstraintGraph:
    """Build the full constraint graph for a bound design.

    Args:
        dfg: the data-flow graph.
        binding: the (possibly merged) binding.
        module_orders: execution order of the ops on each shared module.
        register_orders: lifetime order of the variables in each shared
            register.
        delays: per-op delays (default 1).

    Raises:
        ScheduleError: when an order list disagrees with the binding.
    """
    graph = ConstraintGraph(ops=list(dfg.op_order))
    for edge in dfg.edges():
        graph.add(edge.src, edge.dst, edge_latency(dfg, edge, delays))
    for module, ops in binding.modules().items():
        if len(ops) < 2:
            continue
        order = module_orders.get(module)
        if order is None or sorted(order) != sorted(ops):
            raise ScheduleError(f"module {module!r}: order {order} does not "
                                f"cover ops {ops}")
        for first, second in zip(order, order[1:]):
            delay = 1 if delays is None else delays.get(first, 1)
            graph.add(first, second, delay)
    for register, variables in binding.registers().items():
        if len(variables) < 2:
            continue
        order = register_orders.get(register)
        if order is None or sorted(order) != sorted(variables):
            raise ScheduleError(f"register {register!r}: order {order} does "
                                f"not cover variables {variables}")
        for earlier, later in zip(order, order[1:]):
            _serialisation_edges(graph, dfg, earlier, later)
    return graph


def reschedule(dfg: DFG, binding: Binding,
               module_orders: dict[str, list[str]],
               register_orders: dict[str, list[str]],
               delays: dict[str, int] | None = None) -> dict[str, int] | None:
    """Minimum-latency schedule honouring binding constraints, or None."""
    graph = build_constraints(dfg, binding, module_orders, register_orders,
                              delays)
    return graph.longest_path_schedule()


def current_module_orders(dfg: DFG, binding: Binding,
                          steps: dict[str, int]) -> dict[str, list[str]]:
    """Execution order of each shared module under the current schedule."""
    orders = {}
    for module, ops in binding.modules().items():
        if len(ops) >= 2:
            orders[module] = sorted(ops, key=lambda o: (steps[o], o))
    return orders


def current_register_orders(dfg: DFG, binding: Binding,
                            steps: dict[str, int]) -> dict[str, list[str]]:
    """Lifetime order of each shared register under the current schedule."""
    return lifetime_orders(binding, variable_lifetimes(dfg, steps))


def lifetime_orders(binding: Binding, lifetimes: dict[str, Lifetime]
                    ) -> dict[str, list[str]]:
    """Lifetime order of each shared register: by birth, then name."""
    orders = {}
    for register, variables in binding.registers().items():
        if len(variables) >= 2:
            orders[register] = sorted(
                variables, key=lambda v: (lifetimes[v].birth, v))
    return orders


def merge_order_candidates(seq_a: list[str], seq_b: list[str],
                           rank: dict[str, int]) -> list[list[str]]:
    """The two merge-sorted interleavings of two ordered sequences.

    Elements are compared by ``rank`` (their current step); ties are
    broken in favour of sequence A in the first candidate and sequence B
    in the second — the two execution orders the paper's C/O enhancement
    strategy then chooses between (§4.3.1: "two possibilities: execute
    o_i1 before o_j1, or o_j1 before o_i1").
    """
    def merged(prefer_a: bool) -> list[str]:
        result: list[str] = []
        i = j = 0
        while i < len(seq_a) and j < len(seq_b):
            ra, rb = rank[seq_a[i]], rank[seq_b[j]]
            take_a = ra < rb or (ra == rb and prefer_a)
            if take_a:
                result.append(seq_a[i])
                i += 1
            else:
                result.append(seq_b[j])
                j += 1
        result.extend(seq_a[i:])
        result.extend(seq_b[j:])
        return result

    first = merged(True)
    second = merged(False)
    return [first] if first == second else [first, second]

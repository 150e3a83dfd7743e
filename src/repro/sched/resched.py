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
from typing import Iterable

from ..alloc.binding import Binding
from ..dfg import DFG
from ..dfg.analysis import edge_latency
from ..dfg.lifetime import DefUse, Lifetime
from ..errors import ScheduleError

#: Constraint edges as ``((src, dst), gap)``.
Edges = list[tuple[tuple[str, str], int]]


@dataclass
class ConstraintGraph:
    """Difference constraints ``step(dst) - step(src) >= gap`` between ops."""

    ops: list[str]
    edges: dict[tuple[str, str], int] = field(default_factory=dict)

    def add(self, src: str, dst: str, gap: int) -> None:
        """Add a constraint, keeping the strongest gap per edge.

        A self-edge constrains nothing unless its gap is positive, and
        then ``step(x) >= step(x) + gap`` is unsatisfiable.
        """
        if src == dst and gap <= 0:
            return
        key = (src, dst)
        if key not in self.edges or self.edges[key] < gap:
            self.edges[key] = gap

    def add_all(self, edges: Iterable[tuple[tuple[str, str], int]]) -> None:
        """:meth:`add` each edge (none of them a self-edge with gap <= 0)."""
        kept = self.edges
        for key, gap in edges:
            if key not in kept or kept[key] < gap:
                kept[key] = gap

    def longest_path_schedule(self) -> dict[str, int] | None:
        """ASAP schedule satisfying all constraints, or None on a cycle.

        Each op's step is the longest path to it from the ops without
        predecessors, all at step 0.  That length is unique, so ops may
        leave the ready list in any order as long as each leaves after
        all its predecessors.
        """
        successors: dict[str, list[tuple[str, int]]] = {o: [] for o in self.ops}
        indegree = dict.fromkeys(self.ops, 0)
        for (src, dst), gap in self.edges.items():
            if src == dst:
                return None  # only positive self-edges are kept
            successors[src].append((dst, gap))
            indegree[dst] += 1
        ready = [o for o, d in indegree.items() if not d]
        steps = dict.fromkeys(self.ops, 0)
        visited = 0
        while ready:
            node = ready.pop()
            visited += 1
            base = steps[node]
            for child, gap in successors[node]:
                if base + gap > steps[child]:
                    steps[child] = base + gap
                indegree[child] -= 1
                if not indegree[child]:
                    ready.append(child)
        if visited != len(self.ops):
            return None
        return steps


class ConstraintSkeleton:
    """What every constraint graph of one DFG shares, derived once.

    That is the precedence edges (the strongest gap per op pair), each
    variable's def/use ops, and, derived on first use, the
    serialisation edges of each (earlier, later) register-order pair.
    :class:`repro.synth.algorithm.MergerMemo` keeps one per DFG, so a
    run or sweep derives each fact once instead of once per reschedule.
    """

    def __init__(self, dfg: DFG) -> None:
        self.dfg = dfg
        graph = ConstraintGraph(ops=dfg.op_order)
        for edge in dfg.edges():
            graph.add(edge.src, edge.dst, edge_latency(dfg, edge))
        self._precedence = graph
        self.def_use = DefUse(dfg)
        self._defs = {name: defs for name, _, _, defs, _ in self.def_use.rows}
        self._uses = {name: uses for name, _, _, _, uses in self.def_use.rows}
        self._pairs: dict[tuple[str, str], Edges] = {}

    def graph(self) -> ConstraintGraph:
        """A new graph holding the precedence edges."""
        return ConstraintGraph(list(self._precedence.ops),
                               dict(self._precedence.edges))

    def serialisation(self, earlier: str, later: str) -> Edges:
        """The edges that end lifetime(earlier) before lifetime(later)
        begins.

        With half-open occupation intervals ``(birth, death]`` the
        condition is ``death(earlier) <= birth(later)``.  Birth ops are
        the ops whose step determines the birth: the first definition,
        or every use of an input variable (the earliest one decides).
        Death ops bound the death: every use and, for multiply-defined
        variables, the later defs.
        """
        edges = self._pairs.get((earlier, later))
        if edges is None:
            edges = self._pairs[(earlier, later)] = \
                self._serialisation(earlier, later)
        return edges

    def _serialisation(self, earlier: str, later: str) -> Edges:
        dfg = self.dfg
        earlier_defs = self._defs.get(earlier, ())
        later_defs = self._defs.get(later, ())
        later_uses = self._uses.get(later, ())
        later_is_input = dfg.variable(later).is_input and not later_defs
        birth_ops = later_defs[:1] if later_defs else later_uses
        # An output keeps its register one step past its last definition.
        extra_death = 1 if (dfg.variable(earlier).is_output
                            and earlier_defs) else 0
        graph = ConstraintGraph(ops=[])
        for death_op in self._uses.get(earlier, ()) + earlier_defs:
            # Death from a plain use happens during the step; a birth by
            # definition in the same step is fine (write at step end).
            # An input variable is loaded the step before its first use,
            # so its uses must start strictly after the earlier death.
            gap = ((extra_death if death_op in earlier_defs else 0)
                   + (1 if later_is_input else 0))
            for birth_op in birth_ops:
                graph.add(death_op, birth_op, gap)
        return list(graph.edges.items())


def build_constraints(dfg: DFG, binding: Binding,
                      module_orders: dict[str, list[str]],
                      register_orders: dict[str, list[str]],
                      skeleton: ConstraintSkeleton | None = None
                      ) -> ConstraintGraph:
    """Build the full constraint graph for a bound design.

    Args:
        dfg: the data-flow graph.
        binding: the (possibly merged) binding.
        module_orders: execution order of the ops on each shared module.
        register_orders: lifetime order of the variables in each shared
            register.
        skeleton: the :class:`ConstraintSkeleton` of ``dfg``, when the
            caller keeps one.

    Raises:
        ScheduleError: when an order list disagrees with the binding.
    """
    if skeleton is None:
        skeleton = ConstraintSkeleton(dfg)
    graph = skeleton.graph()
    for module, ops in binding.module_groups().items():
        if len(ops) < 2:
            continue
        order = module_orders.get(module)
        if order is None or tuple(sorted(order)) != ops:
            raise ScheduleError(f"module {module!r}: order {order} does not "
                                f"cover ops {list(ops)}")
        for first, second in zip(order, order[1:]):
            graph.add(first, second, 1)
    for register, variables in binding.register_groups().items():
        if len(variables) < 2:
            continue
        order = register_orders.get(register)
        if order is None or tuple(sorted(order)) != variables:
            raise ScheduleError(f"register {register!r}: order {order} does "
                                f"not cover variables {list(variables)}")
        for earlier, later in zip(order, order[1:]):
            graph.add_all(skeleton.serialisation(earlier, later))
    return graph


def reschedule(dfg: DFG, binding: Binding,
               module_orders: dict[str, list[str]],
               register_orders: dict[str, list[str]],
               skeleton: ConstraintSkeleton | None = None
               ) -> dict[str, int] | None:
    """Minimum-latency schedule honouring binding constraints, or None."""
    graph = build_constraints(dfg, binding, module_orders, register_orders,
                              skeleton)
    return graph.longest_path_schedule()


def current_module_orders(dfg: DFG, binding: Binding,
                          steps: dict[str, int]) -> dict[str, list[str]]:
    """Execution order of each shared module under the current schedule."""
    orders = {}
    for module, ops in binding.module_groups().items():
        if len(ops) >= 2:
            orders[module] = sorted(ops, key=lambda o: (steps[o], o))
    return orders


def lifetime_orders(binding: Binding, lifetimes: dict[str, Lifetime]
                    ) -> dict[str, list[str]]:
    """Lifetime order of each shared register: by birth, then name."""
    orders = {}
    for register, variables in binding.register_groups().items():
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

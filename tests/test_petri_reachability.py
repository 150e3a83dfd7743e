"""Unit tests for the reachability graph and critical-path extraction."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dfg import DFGBuilder
from repro.errors import PetriNetError
from repro.petri import (FINAL_PLACE, Guard, PetriNet, ReachabilityGraph,
                         control_net_for_design, control_net_from_schedule,
                         critical_path, execution_time)
from repro.petri.reachability import UnsafeFiring


class TestReachability:
    def test_linear_chain(self):
        net = control_net_from_schedule("lin", 4)
        graph = ReachabilityGraph(net)
        assert graph.contains(frozenset({FINAL_PLACE}))
        assert len(set(graph.markings)) == len(graph) == 5

    def test_loop_terminates_via_duplicates(self):
        net = control_net_from_schedule("loop", 3, loop_condition="c")
        graph = ReachabilityGraph(net)
        # The back edge leads to a marking the graph already holds.
        back = [e for e in graph.edges if e.trans_id == "t_loop"]
        assert [e.dst for e in back] == [net.initial_marking]
        assert len(graph) == 4

    def test_fork_join(self):
        net = PetriNet("forkjoin")
        for pid in ("P0", "A", "B", "P3"):
            net.add_place(pid, delay=1)
        net.add_place(FINAL_PLACE, delay=0)
        net.add_transition("fork", ["P0"], ["A", "B"])
        net.add_transition("join", ["A", "B"], ["P3"])
        net.add_transition("end", ["P3"], [FINAL_PLACE])
        net.set_initial("P0")
        net.set_final(FINAL_PLACE)
        graph = ReachabilityGraph(net)
        assert graph.contains(frozenset({"A", "B"}))
        assert graph.contains(frozenset({FINAL_PLACE}))

    def test_node_budget(self):
        net = control_net_from_schedule("big", 50)
        with pytest.raises(PetriNetError):
            critical_path(net, max_markings=10)


class TestCriticalPath:
    def test_linear_length(self):
        net = control_net_from_schedule("lin", 4)
        assert execution_time(net) == 4

    def test_single_step(self):
        net = control_net_from_schedule("one", 1)
        assert execution_time(net) == 1

    def test_loop_counts_one_iteration(self):
        straight = execution_time(control_net_from_schedule("s", 5))
        looped = execution_time(
            control_net_from_schedule("l", 5, loop_condition="c"))
        # E is the per-iteration path to the final place: identical to the
        # straight-line chain of the same length.
        assert looped == straight

    def test_delta_e_consistency(self):
        # Lengthening a looped schedule by one step raises E by one.
        e3 = execution_time(control_net_from_schedule("a", 3, "c"))
        e4 = execution_time(control_net_from_schedule("b", 4, "c"))
        assert e4 - e3 == 1

    def test_places_sequence(self):
        net = control_net_from_schedule("lin", 3)
        cp = critical_path(net)
        assert cp.places == ("S0", "S1", "S2")
        assert cp.length == 3

    def test_zero_steps_rejected(self):
        with pytest.raises(PetriNetError):
            control_net_from_schedule("bad", 0)

    def test_invalid_net_rejected(self):
        with pytest.raises(PetriNetError, match="no places"):
            critical_path(PetriNet("void"))

    def test_long_loop_walks_without_recursion(self):
        net = control_net_from_schedule("long", 2000, loop_condition="c")
        assert execution_time(net) == 2000

    def test_control_net_for_design(self):
        b = DFGBuilder("d")
        b.inputs("a", "b")
        b.op("N1", "+", "x", "a", "b")
        b.op("N2", "*", "y", "x", "b")
        dfg = b.build()
        net = control_net_for_design(dfg, {"N1": 0, "N2": 1})
        assert execution_time(net) == 2
        assert net.places["S0"].label == "N1"
        assert net.places["S1"].label == "N2"

    def test_control_net_for_loop_design(self, loop_dfg):
        net = control_net_for_design(loop_dfg, {"N1": 0, "N2": 1})
        assert "t_loop" in net.transitions
        assert net.transitions["t_loop"].guard == Guard("c")
        assert net.transitions["t_exit"].guard == Guard("c", negated=True)


class TestSafeness:
    def test_linear_net_is_safe(self):
        net = control_net_from_schedule("lin", 4)
        graph = ReachabilityGraph(net)
        assert graph.is_safe()
        assert graph.unsafe_firings == []

    def test_looping_net_is_safe(self):
        net = control_net_from_schedule("loop", 3, loop_condition="c")
        assert ReachabilityGraph(net).is_safe()

    def test_unsafe_firing_detected_and_skipped(self):
        net = PetriNet("unsafe")
        net.add_place("P0", delay=1)
        net.add_place("A", delay=1)
        net.add_place("B", delay=1)
        net.add_place(FINAL_PLACE, delay=0)
        net.add_transition("t", ["P0"], ["A"])
        net.add_transition("u", ["A", "B"], [FINAL_PLACE])
        net.set_initial("P0", "A")
        net.set_final(FINAL_PLACE)
        graph = ReachabilityGraph(net)
        assert not graph.is_safe()
        assert graph.unsafe_firings == [
            UnsafeFiring(frozenset({"P0", "A"}), "t", ("A",))]
        # The unsafe firing is recorded but not taken: with t skipped
        # and u disabled, the graph is just the initial marking.
        assert graph.markings == [net.initial_marking]
        assert graph.edges == []

    def test_unsafe_net_reported_by_net007(self):
        from repro.lint import lint_petri
        net = PetriNet("unsafe2")
        net.add_place("P0", delay=1)
        net.add_place("A", delay=1)
        net.add_transition("t", ["P0"], ["A"])
        net.set_initial("P0", "A")
        report = lint_petri(net)
        assert "NET007" in report.codes()
        [finding] = [d for d in report if d.code == "NET007"]
        assert finding.severity.value == "warning"
        assert finding.location == "t"

    def test_safe_control_nets_pass_net007(self):
        from repro.lint import lint_petri
        net = control_net_from_schedule("lin", 5)
        assert "NET007" not in lint_petri(net).codes()


# ----------------------------------------------------------------------
# Critical path against an exhaustive enumeration of firing sequences
# ----------------------------------------------------------------------
def enumerated_length(net: PetriNet) -> int:
    """The longest timed firing sequence, by trying every sequence.

    Entering a marking costs the delays of the places it newly marks; a
    sequence stops at a final marking, a dead marking, or a marking
    already on it; sequences reaching a final marking beat all others.
    """
    def cost(places):
        return sum(net.places[p].delay for p in places)

    finals, others = [], []
    start = net.initial_marking
    stack = [(start, {start}, cost(start))]
    while stack:
        marking, seen, time = stack.pop()
        successors = [net.fire(marking, t) for t in net.enabled(marking)]
        if net.is_final(marking) or not successors:
            (finals if net.is_final(marking) else others).append(time)
            continue
        for after in successors:
            later = time + cost(after - marking)
            if after in seen:
                others.append(later)
            else:
                stack.append((after, seen | {after}, later))
    return max(finals or others)


@st.composite
def control_nets(draw):
    """Small safe control nets: a chain, a guarded if/else or a
    fork-join of two chains between S0 and a join place J, which exits
    to the final place, loops back to S0 under a guard, or both."""
    delays = st.integers(0, 2)
    net = PetriNet("random")
    net.add_place("S0", delay=draw(delays))
    net.add_place("J", delay=draw(delays))
    net.add_place(FINAL_PLACE, delay=0)

    def chain(prefix):
        length = draw(st.integers(1, 4))
        for i in range(length):
            net.add_place(f"{prefix}{i}", delay=draw(delays))
        for i in range(length - 1):
            net.add_transition(f"t{prefix}{i}", [f"{prefix}{i}"],
                               [f"{prefix}{i + 1}"])
        return f"{prefix}0", f"{prefix}{length - 1}"

    kind = draw(st.sampled_from(["chain", "if_else", "fork_join"]))
    first, last = chain("A")
    if kind == "chain":
        net.add_transition("enter", ["S0"], [first])
        net.add_transition("leave", [last], ["J"])
    else:
        other_first, other_last = chain("B")
        if kind == "if_else":
            net.add_transition("then", ["S0"], [first], guard=Guard("c"))
            net.add_transition("else", ["S0"], [other_first],
                               guard=Guard("c", negated=True))
            net.add_transition("join_a", [last], ["J"])
            net.add_transition("join_b", [other_last], ["J"])
        else:
            net.add_transition("fork", ["S0"], [first, other_first])
            net.add_transition("join", [last, other_last], ["J"])
    ending = draw(st.sampled_from(["exit", "loop_or_exit", "loop"]))
    if ending != "exit":
        net.add_transition("t_loop", ["J"], ["S0"], guard=Guard("l"))
    if ending != "loop":
        net.add_transition("t_exit", ["J"], [FINAL_PLACE],
                           guard=Guard("l", negated=True)
                           if ending == "loop_or_exit" else None)
    net.set_initial("S0")
    net.set_final(FINAL_PLACE)
    return net


@settings(max_examples=150, deadline=None)
@given(control_nets())
def test_critical_path_matches_enumeration(net):
    assert critical_path(net).length == enumerated_length(net)

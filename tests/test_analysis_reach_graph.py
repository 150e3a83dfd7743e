"""Unit tests for the memoised reachability graph."""

import pytest

from repro.analysis import GraphEdge, ReachabilityGraph
from repro.errors import PetriNetError
from repro.petri import FINAL_PLACE, PetriNet, control_net_from_schedule


def fork_join_net(chain_length: int = 1) -> PetriNet:
    """S0 forks into two chains of ``chain_length`` places, then joins."""
    net = PetriNet(f"forkjoin{chain_length}")
    net.add_place("S0", delay=1)
    for branch in ("A", "B"):
        for i in range(chain_length):
            net.add_place(f"{branch}{i}", delay=1)
    net.add_place("J", delay=1)
    net.add_place(FINAL_PLACE, delay=0)
    net.add_transition("fork", ["S0"], ["A0", "B0"])
    for branch in ("A", "B"):
        for i in range(chain_length - 1):
            net.add_transition(f"t{branch}{i}", [f"{branch}{i}"],
                               [f"{branch}{i + 1}"])
    last = chain_length - 1
    net.add_transition("join", [f"A{last}", f"B{last}"], ["J"])
    net.add_transition("end", ["J"], [FINAL_PLACE])
    net.set_initial("S0")
    net.set_final(FINAL_PLACE)
    return net


def unsafe_net() -> PetriNet:
    """Firing t would put a second token into the already-marked A."""
    net = PetriNet("unsafe")
    net.add_place("P0", delay=1)
    net.add_place("A", delay=1)
    net.add_transition("t", ["P0"], ["A"])
    net.set_initial("P0", "A")
    return net


class TestReachabilityGraph:
    def test_linear_chain(self):
        net = control_net_from_schedule("lin", 4)
        graph = ReachabilityGraph(net)
        assert len(graph) == 5  # S1..S4 plus the final marking
        assert graph.contains(frozenset({FINAL_PLACE}))
        assert graph.is_safe()

    def test_edges_and_successors(self):
        net = control_net_from_schedule("lin", 2)
        graph = ReachabilityGraph(net)
        first = graph.successors(net.initial_marking)
        assert len(first) == 1
        assert isinstance(first[0], GraphEdge)
        assert first[0].src == net.initial_marking
        assert graph.successors(frozenset({"nowhere"})) == []

    def test_loop_terminates(self):
        net = control_net_from_schedule("loop", 3, loop_condition="c")
        graph = ReachabilityGraph(net)
        # 3 step markings plus the final one; the back edge adds no new
        # marking, only an edge back to an already-visited one.
        assert len(graph) == 4
        back = [e for e in graph.edges if e.dst == net.initial_marking]
        assert back, "the loop back edge must appear in the graph"

    def test_fork_join_markings(self):
        graph = ReachabilityGraph(fork_join_net(2))
        assert graph.contains(frozenset({"A0", "B0"}))
        assert graph.contains(frozenset({"A0", "B1"}))
        assert graph.contains(frozenset({"A1", "B0"}))
        assert graph.contains(frozenset({FINAL_PLACE}))

    def test_global_dedup_counts_markings_not_interleavings(self):
        net = fork_join_net(6)
        graph = ReachabilityGraph(net)
        # Two 6-chains: the graph holds the ~6*6 concurrent markings,
        # not one node per interleaving of the two chains (over 900).
        assert len(graph) < 50
        assert graph.is_safe()

    def test_unsafe_firing_recorded_not_raised(self):
        graph = ReachabilityGraph(unsafe_net())
        assert not graph.is_safe()
        [firing] = graph.unsafe_firings
        assert firing.trans_id == "t"
        assert firing.places == ("A",)
        assert firing.marking == frozenset({"P0", "A"})

    def test_max_markings_budget(self):
        net = control_net_from_schedule("big", 50)
        with pytest.raises(PetriNetError):
            ReachabilityGraph(net, max_markings=10)

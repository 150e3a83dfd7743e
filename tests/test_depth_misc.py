"""Deeper edge-case tests: Petri branching, FDS at scale, simulator
lane independence, and flow determinism."""

import random

import pytest

from repro.bench import load
from repro.dfg import UnitClass
from repro.gates import CompiledCircuit, GateNetlist, GateType
from repro.petri import (FINAL_PLACE, Guard, PetriNet, ReachabilityGraph,
                         critical_path, execution_time)
from repro.sched import check_precedence, fds_schedule, peak_usage


class TestPetriBranching:
    def _if_else_net(self, then_steps: int, else_steps: int) -> PetriNet:
        """A guarded branch: cond ? then-chain : else-chain, then join."""
        net = PetriNet("branch")
        net.add_place("P0", delay=1)
        for i in range(then_steps):
            net.add_place(f"T{i}", delay=1)
        for i in range(else_steps):
            net.add_place(f"E{i}", delay=1)
        net.add_place(FINAL_PLACE, delay=0)
        net.add_transition("t_then", ["P0"], ["T0"], guard=Guard("c"))
        net.add_transition("t_else", ["P0"], ["E0"],
                           guard=Guard("c", negated=True))
        for i in range(then_steps - 1):
            net.add_transition(f"tt{i}", [f"T{i}"], [f"T{i+1}"])
        for i in range(else_steps - 1):
            net.add_transition(f"te{i}", [f"E{i}"], [f"E{i+1}"])
        net.add_transition("t_tj", [f"T{then_steps-1}"], [FINAL_PLACE])
        net.add_transition("t_ej", [f"E{else_steps-1}"], [FINAL_PLACE])
        net.set_initial("P0")
        net.set_final(FINAL_PLACE)
        return net

    def test_both_branches_explored(self):
        net = self._if_else_net(2, 4)
        graph = ReachabilityGraph(net)
        assert graph.contains(frozenset({"T0"}))
        assert graph.contains(frozenset({"E0"}))

    def test_critical_path_takes_longer_branch(self):
        net = self._if_else_net(2, 4)
        # 1 (P0) + 4 (else chain) dominates.
        assert execution_time(net) == 5
        cp = critical_path(net)
        assert "E3" in cp.places

    def test_symmetric_branches(self):
        net = self._if_else_net(3, 3)
        assert execution_time(net) == 4
        # Equally long branches that continue past their first firing:
        # the tie goes to the later one in transition order.
        cp = critical_path(net)
        assert cp.places == ("P0", "E0", "E1", "E2")
        assert cp.transitions == ("t_else", "te0", "te1", "t_ej")


class TestFdsAtScale:
    def test_ewf_schedules_and_balances(self):
        dfg = load("ewf")
        steps = fds_schedule(dfg)
        check_precedence(dfg, steps)
        peaks = peak_usage(dfg, steps)
        # 8 mults over a deep schedule: FDS should need few multipliers.
        assert peaks[UnitClass.MULTIPLIER] <= 3

    def test_longer_horizon_fewer_units(self):
        dfg = load("fir8")
        tight = peak_usage(dfg, fds_schedule(dfg))
        relaxed = peak_usage(dfg, fds_schedule(
            dfg, horizon=2 * max(fds_schedule(dfg).values()) + 2))
        assert (relaxed[UnitClass.MULTIPLIER]
                <= tight[UnitClass.MULTIPLIER])


class TestLaneIndependenceSequential:
    def test_64_independent_accumulators(self):
        """Each lane of a sequential circuit evolves independently."""
        net = GateNetlist("acc")
        q = net.add_dff("q")
        a = net.add_input("a")
        d = net.add(GateType.XOR, (q, a))
        net.connect_dff(q, d)
        net.set_output("q", q)
        circuit = CompiledCircuit(net)
        rng = random.Random(9)
        streams = [[rng.getrandbits(1) for _ in range(12)]
                   for _ in range(64)]
        vectors = []
        for cycle in range(12):
            packed = 0
            for lane in range(64):
                if streams[lane][cycle]:
                    packed |= 1 << lane
            vectors.append({"a": packed})
        _, state = circuit.run(vectors)
        for lane in range(64):
            expected = 0
            for bit in streams[lane]:
                expected ^= bit
            assert ((state[0] >> lane) & 1) == expected


class TestFlowDeterminism:
    @pytest.mark.parametrize("name", ["ex", "diffeq", "iir"])
    def test_ours_is_deterministic(self, name):
        from repro.synth import run_ours
        a = run_ours(load(name))
        b = run_ours(load(name))
        assert a.design.steps == b.design.steps
        assert a.design.binding.module_of == b.design.binding.module_of
        assert a.design.binding.register_of == b.design.binding.register_of
        assert [r.absorbed for r in a.history] \
            == [r.absorbed for r in b.history]

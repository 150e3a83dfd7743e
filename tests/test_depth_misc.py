"""Deeper edge-case tests: FDS at scale, simulator lane independence,
and flow determinism."""

import random

import pytest

from repro.bench import load
from repro.dfg import UnitClass
from repro.gates import CompiledCircuit, GateNetlist, GateType
from repro.sched import check_precedence, fds_schedule, peak_usage


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

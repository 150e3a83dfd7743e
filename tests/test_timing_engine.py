"""Unit tests for the static timing analysis engine.

Hand-built netlists with arrivals computable by eye: launch/capture
semantics, slack arithmetic, false-path pruning, budget/chaos
degradation and the blocked-analysis paths.
"""

import json

import pytest

from repro.analysis.timing import (DEFAULT_TABLE, DelayTable, analyze_timing,
                                   default_period)
from repro.gates import GateNetlist, GateType
from repro.gates.netlist import Gate
from repro.runtime.budget import Budget
from repro.runtime.chaos import ACTION_RAISE, Injection

T = DEFAULT_TABLE

# Looser than the library-implied default period at 4 bits (~79), so
# report.ok is decided by slack alone, never by library disagreements.
PERIOD = 200.0


def simple_net():
    """o = XOR(AND(a, b), a); q captures the same signal."""
    net = GateNetlist("simple")
    a = net.add_input("a")
    b = net.add_input("b")
    g1 = net.add(GateType.AND, (a, b))
    g2 = net.add(GateType.XOR, (g1, a))
    net.set_output("o", g2)
    q = net.add_dff("q")
    net.connect_dff(q, g2)
    return net


class TestArrivals:
    def test_output_arrival_and_slack(self):
        report = analyze_timing(simple_net(), bits=4, period=PERIOD)
        out = next(e for e in report.endpoints if e.kind == "output")
        assert out.arrival == pytest.approx(T.and_ + T.xor)
        assert out.required == PERIOD
        assert out.slack == pytest.approx(PERIOD - (T.and_ + T.xor))
        assert out.levels == 2
        assert report.ok

    def test_dff_capture_subtracts_setup(self):
        report = analyze_timing(simple_net(), bits=4, period=PERIOD)
        dff = next(e for e in report.endpoints if e.kind == "dff")
        assert dff.required == pytest.approx(PERIOD - T.setup)
        assert dff.arrival == pytest.approx(T.and_ + T.xor)

    def test_dff_launch_adds_clk_q(self):
        net = GateNetlist("launch")
        a = net.add_input("a")
        q = net.add_dff("q")
        g = net.add(GateType.AND, (q, a))
        net.set_output("o", g)
        net.connect_dff(q, g)
        report = analyze_timing(net, bits=4, period=PERIOD)
        out = next(e for e in report.endpoints if e.kind == "output")
        assert out.arrival == pytest.approx(T.clk_q + T.and_)

    def test_default_period_derived(self):
        report = analyze_timing(simple_net(), bits=4)
        assert report.period_is_default
        assert report.period == default_period(4)

    def test_violations_wns_tns(self):
        period = 1.0  # tighter than any cone here
        report = analyze_timing(simple_net(), bits=4, period=period)
        assert report.violations()
        worst = report.violations()[0]
        assert report.wns() == pytest.approx(worst.slack)
        assert report.tns() == pytest.approx(
            sum(e.slack for e in report.violations()))
        assert not report.ok

    def test_deterministic_and_serialisable(self):
        first = analyze_timing(simple_net(), bits=4, period=PERIOD)
        second = analyze_timing(simple_net(), bits=4, period=PERIOD)
        assert first.to_dict() == second.to_dict()
        json.dumps(first.to_dict())


class TestFalsePaths:
    def test_constant_cone_is_unconstrained(self):
        net = GateNetlist("const")
        a = net.add_input("a")
        c0 = net.add(GateType.CONST0)
        g = net.add(GateType.AND, (c0, a))  # 0 for every valuation
        net.set_output("o", g)
        report = analyze_timing(net, bits=4, period=PERIOD)
        out = report.endpoints[0]
        assert out.arrival is None and out.slack is None
        assert report.pruned_total == 1
        assert report.unconstrained() == [out]
        assert report.ok  # dead logic is a warning, not a failure

    def test_pruned_gate_does_not_dominate_live_path(self):
        net = GateNetlist("mixed")
        a = net.add_input("a")
        b = net.add_input("b")
        c1 = net.add(GateType.CONST1)
        # Deep false path: OR(1, x) chains are constant at every stage.
        dead = net.add(GateType.OR, (c1, a))
        for _ in range(5):
            dead = net.add(GateType.OR, (dead, b))
        live = net.add(GateType.AND, (a, b))
        out = net.add(GateType.AND, (net.add(GateType.BUF, (dead,)), live))
        net.set_output("o", out)
        report = analyze_timing(net, bits=4, period=PERIOD)
        ep = report.endpoints[0]
        # Arrival comes from the live AND path only: the constant branch
        # contributes value, never time.
        assert ep.arrival == pytest.approx(2 * T.and_)
        assert report.pruned_total == 7  # the OR chain and its BUF

    def test_sequential_constants_prune_stuck_register(self):
        net = GateNetlist("seq")
        a = net.add_input("a")
        q = net.add_dff("q")
        c0 = net.add(GateType.CONST0)
        net.connect_dff(q, c0)  # q is reset-reachably stuck at 0
        g = net.add(GateType.AND, (q, a))
        net.set_output("o", g)
        plain = analyze_timing(net, bits=4, period=PERIOD)
        seeded = analyze_timing(net, bits=4, period=PERIOD,
                                sequential_constants=True)
        out_plain = next(e for e in plain.endpoints if e.kind == "output")
        out_seeded = next(e for e in seeded.endpoints if e.kind == "output")
        assert out_plain.arrival is not None
        assert out_seeded.arrival is None  # proved false by the seed


class TestDegradation:
    def test_budget_partial_is_tagged(self):
        report = analyze_timing(simple_net(), bits=4, period=PERIOD,
                                budget=Budget(max_steps=1))
        assert report.budget_exhausted
        assert any(e.skip_reason == "budget_exhausted"
                   for e in report.skipped())
        assert not report.ok
        json.dumps(report.to_dict())

    def test_chaos_skips_one_endpoint(self, chaos):
        chaos(Injection("timing.cone_eval", ACTION_RAISE, at_visit=1))
        report = analyze_timing(simple_net(), bits=4, period=PERIOD)
        assert report.degraded
        assert len(report.skipped()) == 1
        assert "ChaosError" in report.skipped()[0].skip_reason
        survivors = [e for e in report.endpoints if e.analysed]
        assert survivors and all(e.slack is not None for e in survivors)

    def test_forged_cycle_blocks_analysis(self):
        net = simple_net()
        base = len(net.gates)
        net.gates.append(Gate(base, GateType.AND, (0, base + 1)))
        net.gates.append(Gate(base + 1, GateType.AND, (base, 1)))
        report = analyze_timing(net, bits=4, period=PERIOD)
        assert report.cycle
        assert not report.endpoints
        assert not report.ok

    def test_floating_dff_is_skipped_not_fatal(self):
        net = simple_net()
        net.add_dff("floating")
        report = analyze_timing(net, bits=4, period=PERIOD)
        assert report.degraded
        skipped = report.skipped()
        assert len(skipped) == 1 and "floating" in skipped[0].skip_reason
        assert any(e.analysed for e in report.endpoints)

    def test_broken_table_refuses_to_propagate(self):
        report = analyze_timing(simple_net(), bits=4,
                                table=DelayTable(and_=0.0))
        assert report.table_problems
        assert not report.endpoints
        assert not report.ok


class TestWorstPaths:
    def test_paths_sorted_and_consistent(self):
        report = analyze_timing(simple_net(), bits=4, period=PERIOD,
                                k_paths=4)
        assert report.paths
        slacks = [p.slack for p in report.paths]
        assert slacks == sorted(slacks)
        for path in report.paths:
            arrivals = [s.arrival for s in path.steps]
            assert arrivals == sorted(arrivals)
            ep = next(e for e in report.endpoints if e.name == path.endpoint)
            assert path.arrival == pytest.approx(ep.arrival)
            assert path.steps[-1].gid == ep.gid \
                or path.steps[-1].arrival == pytest.approx(ep.arrival)
            assert path.format()

    def test_k_zero_extracts_nothing(self):
        report = analyze_timing(simple_net(), bits=4, period=PERIOD,
                                k_paths=0)
        assert report.paths == []


class TestStructuralIds:
    def test_scan_style_replacement_stays_analysable(self):
        # scan insertion swaps a DFF's Gate in place (same gid, new D
        # driver with a higher gid); the DFF must still be timed.
        net = simple_net()
        q = net.dffs()[0].gid
        mux = net.add(GateType.OR, (net.inputs["a"], net.inputs["b"]))
        net.gates[q] = Gate(q, GateType.DFF, (mux,), net.gates[q].name)
        report = analyze_timing(net, bits=4, period=PERIOD)
        dff = next(e for e in report.endpoints if e.kind == "dff")
        assert dff.arrival == pytest.approx(T.or_)

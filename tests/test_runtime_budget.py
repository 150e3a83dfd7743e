"""Budget semantics and their integration into the long-running kernels."""

import pytest

from repro.petri.reachability import ReachabilityGraph
from repro.atpg import ATPGConfig, RandomPhaseConfig, run_atpg
from repro.bench import load
from repro.etpn.from_dfg import default_design
from repro.gates import expand_to_gates
from repro.petri.builders import control_net_for_design
from repro.rtl import generate_rtl
from repro.runtime import (Budget, REASON_CANCELLED, REASON_DEADLINE,
                           REASON_STEPS)
from repro.runtime.budget import CLOCK_CHECK_INTERVAL
from repro.synth import run_ours


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestBudget:
    def test_unlimited_never_exhausts(self):
        budget = Budget.unlimited()
        assert budget.charge(10_000)
        assert not budget.exhausted()
        assert budget.reason is None
        assert budget.remaining_seconds() is None

    def test_step_ceiling(self):
        budget = Budget(max_steps=3)
        assert budget.charge()
        assert budget.charge(2)
        assert not budget.charge()  # fourth step crosses the ceiling
        assert budget.reason == REASON_STEPS

    def test_exhaustion_is_sticky(self):
        budget = Budget(max_steps=1)
        budget.charge(5)
        assert budget.exhausted()
        assert not budget.charge(0)
        assert budget.exhausted()

    def test_deadline_via_fake_clock(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock)
        assert budget.charge()
        clock.now = 11.0
        assert budget.exhausted()
        assert budget.reason == REASON_DEADLINE

    def test_charge_amortises_clock_checks(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock)
        assert budget.charge()  # first charge reads the clock
        clock.now = 11.0
        # The next clock read is CLOCK_CHECK_INTERVAL steps away, so a
        # single cheap charge does not notice the blown deadline...
        assert budget.charge()
        # ...but charging past the interval does.
        assert not budget.charge(CLOCK_CHECK_INTERVAL)
        assert budget.reason == REASON_DEADLINE

    def test_exhausted_always_consults_clock(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock)
        budget.charge()
        clock.now = 11.0
        assert budget.exhausted()  # no amortisation at stage boundaries

    def test_cancel(self):
        budget = Budget.unlimited()
        budget.cancel()
        assert budget.exhausted()
        assert budget.reason == REASON_CANCELLED
        budget.cancel("other")  # first reason wins
        assert budget.reason == REASON_CANCELLED

    def test_remaining_seconds(self):
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock)
        clock.now = 4.0
        assert budget.remaining_seconds() == pytest.approx(6.0)
        clock.now = 15.0
        assert budget.remaining_seconds() == 0.0

    def test_provenance(self):
        budget = Budget(max_steps=1)
        assert budget.provenance()["budget_exhausted"] is False
        budget.charge(2)
        tags = budget.provenance()
        assert tags == {"budget_exhausted": True,
                        "budget_reason": REASON_STEPS,
                        "budget_steps": 2}


class TestKernelIntegration:
    def test_synthesize_starved_returns_degraded_best_so_far(self):
        result = run_ours(load("ex"), budget=Budget(max_steps=0))
        assert result.degraded
        assert any("budget_exhausted" in r
                   for r in result.degradation_reasons)
        assert result.iterations == 0
        result.design.validate()  # partial result is still a design

    def test_synthesize_partial_budget_applies_some_mergers(self):
        full = run_ours(load("ex"))
        partial = run_ours(load("ex"), budget=Budget(max_steps=2))
        assert partial.degraded
        assert 0 < partial.iterations <= 2 < full.iterations
        partial.design.validate()

    def test_synthesize_unlimited_budget_not_degraded(self):
        result = run_ours(load("ex"), budget=Budget.unlimited())
        assert not result.degraded
        assert result.degradation_reasons == []

    def test_atpg_budget_exhaustion_accounts_every_fault(self):
        design = run_ours(load("ex")).design
        netlist = expand_to_gates(generate_rtl(design, 4))
        config = ATPGConfig(
            random=RandomPhaseConfig(max_sequences=2, saturation=1,
                                     sequence_length=8),
            max_frames=4, max_backtracks=16, fault_fraction=0.5)
        result = run_atpg(netlist, config, budget=Budget(max_steps=50))
        assert result.budget_exhausted
        assert result.budget_reason == REASON_STEPS
        assert (result.detected + result.aborted_faults
                + result.untestable_faults
                + result.untestable_by_analysis) == result.total_faults
        assert result.summary()["budget_exhausted"] is True

    def test_atpg_wall_seconds_config(self):
        design = run_ours(load("ex")).design
        netlist = expand_to_gates(generate_rtl(design, 4))
        config = ATPGConfig(
            random=RandomPhaseConfig(max_sequences=2, saturation=1,
                                     sequence_length=8),
            max_frames=4, max_backtracks=16, fault_fraction=0.5,
            wall_seconds=0.0)
        result = run_atpg(netlist, config)
        assert result.budget_exhausted
        assert result.budget_reason == REASON_DEADLINE

    def test_reachability_budget_truncates_instead_of_raising(self):
        design = default_design(load("ex"))
        net = control_net_for_design(design.dfg, design.steps)
        full = ReachabilityGraph(net)
        partial = ReachabilityGraph(net, budget=Budget(max_steps=1))
        assert not full.truncated
        assert partial.truncated
        assert partial.truncation_reason == "budget_exhausted"
        assert set(partial.markings) <= set(full.markings)
        assert net.initial_marking in set(partial.markings)

"""Budget semantics and their integration into the long-running kernels."""

import pytest

from repro.atpg import ATPGConfig, RandomPhaseConfig, run_atpg
from repro.bench import load
from repro.gates import expand_to_gates
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
        budget = Budget()
        assert budget.charge(10_000)
        assert not budget.exhausted()
        assert budget.reason is None

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
        budget = Budget()
        budget.cancel()
        assert budget.exhausted()
        assert budget.reason == REASON_CANCELLED
        budget.cancel("other")  # first reason wins
        assert budget.reason == REASON_CANCELLED

    @pytest.mark.parametrize("wall_seconds",
                             [float("nan"), float("inf"), -1.0])
    def test_rejects_a_wall_allowance_that_breaks_it(self, wall_seconds):
        # NaN never exhausted and a negative allowance exhausted at once.
        with pytest.raises(ValueError, match="wall_seconds"):
            Budget(wall_seconds=wall_seconds)

    def test_rejects_a_negative_step_ceiling(self):
        with pytest.raises(ValueError, match="max_steps"):
            Budget(max_steps=-1)


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

    def test_synthesize_honours_a_deadline_between_mergers(self,
                                                           monkeypatch):
        """The clock passes the deadline during the first merger's
        evaluation; the loop stops at the next iteration boundary."""
        import repro.synth.algorithm as algorithm
        clock = FakeClock()
        budget = Budget(wall_seconds=10.0, clock=clock)
        try_merge = algorithm.try_merge

        def slow_merge(*args, **kwargs):
            clock.now = 11.0
            return try_merge(*args, **kwargs)

        monkeypatch.setattr(algorithm, "try_merge", slow_merge)
        result = run_ours(load("ex"), budget=budget)
        assert result.degraded
        assert result.iterations == 1
        assert result.degradation_reasons == [
            "budget_exhausted:deadline after 1 mergers"]
        result.design.validate()

    def test_synthesize_unlimited_budget_not_degraded(self):
        result = run_ours(load("ex"), budget=Budget())
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
            max_frames=4, max_backtracks=16, fault_fraction=0.5)
        result = run_atpg(netlist, config, budget=Budget(wall_seconds=0.0))
        assert result.budget_exhausted
        assert result.budget_reason == REASON_DEADLINE

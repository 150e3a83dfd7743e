"""Chaos primitives, the merger loop's failure barriers, and TST004."""

import ast
from pathlib import Path

import pytest

import repro
from repro.bench import load
from repro.errors import ScheduleError
from repro.runtime import (ACTION_CANCEL_BUDGET, ACTION_CORRUPT,
                           ACTION_CRASH, ACTION_RAISE, SEAMS, Budget,
                           ChaosCrash, ChaosError, ChaosInjector, Injection,
                           active_injector, chaos_point)
from repro.synth import run_ours


class TestInjection:
    def test_unknown_seam_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos seam"):
            Injection("no.such.seam", ACTION_RAISE)

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos action"):
            Injection("synth.candidate_eval", "explode")

    def test_window_validation(self):
        with pytest.raises(ValueError):
            Injection("synth.candidate_eval", ACTION_RAISE, at_visit=0)
        with pytest.raises(ValueError):
            Injection("synth.candidate_eval", ACTION_RAISE, count=0)

    def test_fires_at_window(self):
        injection = Injection("synth.candidate_eval", ACTION_RAISE,
                              at_visit=3, count=2)
        assert [injection.fires_at(v) for v in range(1, 6)] == \
            [False, False, True, True, False]


class TestSeamRegistry:
    def test_registry_equals_the_seams_the_source_visits(self):
        # Every chaos_point call names its seam with a literal, so the
        # source says which seams exist; a seam no code visits any more
        # must leave the registry too.
        visited, indirect = set(), []
        root = Path(repro.__file__).resolve().parent
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not (isinstance(node, ast.Call) and node.args):
                    continue
                func = node.func
                name = (func.id if isinstance(func, ast.Name) else
                        func.attr if isinstance(func, ast.Attribute)
                        else None)
                if name != "chaos_point":
                    continue
                seam = node.args[0]
                if isinstance(seam, ast.Constant) and \
                        isinstance(seam.value, str):
                    visited.add(seam.value)
                else:
                    indirect.append(f"{path.relative_to(root)}:"
                                    f"{node.lineno}")
        assert indirect == []
        assert visited == SEAMS


class TestChaosPoint:
    def test_noop_when_inactive(self):
        assert active_injector() is None
        assert chaos_point("synth.candidate_eval", "payload") == "payload"

    def test_unregistered_seam_rejected_when_active(self, chaos):
        chaos(Injection("synth.candidate_eval", ACTION_RAISE, at_visit=99))
        with pytest.raises(ValueError, match="unregistered seam"):
            chaos_point("not.a.seam")

    def test_injectors_do_not_nest(self, chaos):
        chaos()
        with pytest.raises(RuntimeError, match="do not nest"):
            with ChaosInjector():
                pass

    def test_raise_fires_in_window_only(self, chaos):
        injector = chaos(Injection("synth.candidate_eval", ACTION_RAISE,
                                   at_visit=2))
        assert chaos_point("synth.candidate_eval", "ok") == "ok"
        with pytest.raises(ChaosError):
            chaos_point("synth.candidate_eval", "ok")
        assert chaos_point("synth.candidate_eval", "ok") == "ok"
        assert injector.fired == [("synth.candidate_eval", ACTION_RAISE, 2)]

    def test_crash_is_not_a_repro_error(self, chaos):
        chaos(Injection("journal.pre_write", ACTION_CRASH))
        with pytest.raises(ChaosCrash):
            chaos_point("journal.pre_write")
        from repro.errors import ReproError
        assert not issubclass(ChaosCrash, ReproError)

    def test_cancel_budget_action(self, chaos):
        chaos(Injection("atpg.podem_step", ACTION_CANCEL_BUDGET))
        budget = Budget()
        chaos_point("atpg.podem_step", budget)
        assert budget.exhausted()
        assert budget.reason == "chaos"

    def test_corrupt_is_seed_deterministic(self, chaos):
        chaos(Injection("synth.pre_reschedule", ACTION_CORRUPT, count=2),
              seed=1)
        assert chaos_point("synth.pre_reschedule", ["a", "b", "c"]) == \
            ["a", "b", "c", "b"]
        assert chaos_point("synth.pre_reschedule", ["a", "b", "c"]) == \
            ["a", "b", "c", "b"]


class TestMergerBarriers:
    """One misbehaving candidate must never abort Algorithm 1."""

    def test_candidate_raise_is_skipped_and_recorded(self, chaos):
        chaos(Injection("synth.candidate_eval", ACTION_RAISE, count=2))
        result = run_ours(load("ex"))
        assert len(result.skipped) == 2
        assert all("ChaosError" in s.reason for s in result.skipped)
        assert result.iterations >= 1
        assert not result.degraded  # skips alone are not degradation
        result.design.validate()

    def test_corrupted_order_becomes_schedule_error_skip(self, chaos):
        chaos(Injection("synth.pre_reschedule", ACTION_CORRUPT))
        result = run_ours(load("ex"))
        assert len(result.skipped) == 1
        assert "ScheduleError" in result.skipped[0].reason
        result.design.validate()

    def test_reschedule_infeasible_everywhere_yields_unmerged_design(
            self, monkeypatch):
        import repro.synth.merger as merger
        monkeypatch.setattr(merger, "reschedule",
                            lambda *args, **kwargs: None)
        result = run_ours(load("ex"))
        assert result.iterations == 0  # no candidate could reschedule
        assert not result.degraded
        result.design.validate()

    def test_reschedule_intermittently_infeasible_is_survived(
            self, monkeypatch):
        import repro.synth.merger as merger
        real = merger.reschedule
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                return None  # "no feasible schedule" every other call
            return real(*args, **kwargs)

        monkeypatch.setattr(merger, "reschedule", flaky)
        result = run_ours(load("ex"))
        assert result.iterations >= 1
        result.design.validate()

    def test_reschedule_raising_is_recorded_as_skip(self, monkeypatch):
        import repro.synth.merger as merger

        def broken(*args, **kwargs):
            raise ScheduleError("simulated rescheduler defect")

        monkeypatch.setattr(merger, "reschedule", broken)
        result = run_ours(load("ex"))
        assert result.iterations == 0
        assert len(result.skipped) >= 1
        assert all("ScheduleError" in s.reason for s in result.skipped)
        result.design.validate()


class TestScenarioMatrix:
    def test_full_matrix_survives(self, tmp_path):
        from repro.runtime import run_scenarios, scenario_names
        outcomes = run_scenarios(bits=4, workdir=tmp_path)
        assert [o.name for o in outcomes] == scenario_names()
        assert len(outcomes) >= 6
        failed = [f"{o.name}: {o.detail}" for o in outcomes if not o.ok]
        assert not failed, failed

    def test_unknown_scenario_rejected(self):
        from repro.runtime import run_scenarios
        with pytest.raises(KeyError):
            run_scenarios(["definitely-not-registered"])


class TestConvergenceSurfacing:
    def test_analysis_converges_on_benchmarks(self):
        from repro.etpn.from_dfg import default_design
        from repro.testability.analysis import analyze
        analysis = analyze(default_design(load("ex")).datapath)
        assert analysis.forward_converged
        assert analysis.backward_converged

    def test_tst004_fires_when_iteration_ceiling_hit(self, monkeypatch):
        import repro.testability.analysis as ta
        from repro.lint import lint_pipeline
        monkeypatch.setattr(ta, "_MAX_ITERATIONS", 0)
        report = lint_pipeline(load("ex"), bits=4, gates=False)
        codes = [d.code for d in report.diagnostics]
        assert codes.count("TST004") == 2  # forward and backward

    def test_tst004_silent_when_converged(self):
        from repro.lint import lint_pipeline
        report = lint_pipeline(load("ex"), bits=4, gates=False)
        assert all(d.code != "TST004" for d in report.diagnostics)

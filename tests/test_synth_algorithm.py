"""Unit and integration tests for Algorithm 1 and the baseline flows."""

import pytest

from repro.cost import CostModel
from repro.dfg import DFGBuilder
from repro.etpn import default_design
from repro.synth import (SynthesisParams, compatible_pairs, rank_candidates,
                         run_approach1, run_approach2, run_camad, run_flow,
                         run_ours, synthesize)
from repro.testability import analyze


@pytest.fixture
def bigger_dfg():
    """Eight ops, enough structure for several mergers."""
    b = DFGBuilder("bigger")
    b.inputs("a", "b", "c", "d", "e", "f")
    b.op("N1", "*", "p", "a", "b")
    b.op("N2", "*", "q", "c", "d")
    b.op("N3", "+", "r", "p", "e")
    b.op("N4", "+", "s", "q", "f")
    b.op("N5", "-", "t", "r", "a")
    b.op("N6", "-", "u", "s", "c")
    b.op("N7", "+", "v", "t", "u")
    b.outputs("v")
    return b.build()


class TestCandidates:
    def test_compatible_pairs_respect_classes(self, chain_dfg):
        design = default_design(chain_dfg)
        pairs = compatible_pairs(design)
        module_pairs = [(p.node_a, p.node_b) for p in pairs
                        if p.kind == "module"]
        # Only the two ALUs can pair; the mult is alone in its class.
        assert module_pairs == [("M_N2", "M_N3")]

    def test_register_pairs_all(self, chain_dfg):
        design = default_design(chain_dfg)
        register_pairs = [p for p in compatible_pairs(design)
                          if p.kind == "register"]
        assert len(register_pairs) == 7 * 6 // 2

    def test_ranking_deterministic(self, bigger_dfg):
        design = default_design(bigger_dfg)
        analysis = analyze(design.datapath)
        assert (rank_candidates(design, analysis)
                == rank_candidates(design, analysis))


class TestAlgorithm:
    def test_runs_to_completion(self, bigger_dfg):
        result = synthesize(bigger_dfg)
        result.design.validate()
        assert result.iterations > 0

    def test_compacts_hardware(self, bigger_dfg):
        base = default_design(bigger_dfg)
        result = synthesize(bigger_dfg)
        assert (result.design.binding.module_count()
                < base.binding.module_count())
        assert (result.design.binding.register_count()
                < base.binding.register_count())

    def test_no_improving_merger_remains(self, bigger_dfg):
        """Termination means no remaining merger would lower ΔC."""
        from repro.synth import try_merge
        params = SynthesisParams()
        result = synthesize(bigger_dfg, params)
        model = CostModel()
        for pair in compatible_pairs(result.design):
            outcome = try_merge(result.design, pair.kind, pair.node_a,
                                pair.node_b, model)
            if outcome is not None:
                assert outcome.delta_c(params.alpha, params.beta) >= -1e-12

    def test_history_records_deltas(self, bigger_dfg):
        result = synthesize(bigger_dfg,
                            SynthesisParams(k=3, alpha=2.0, beta=1.0))
        for record in result.history:
            assert record.kind in ("module", "register")
            assert record.delta_c == pytest.approx(
                2.0 * record.delta_e + 1.0 * record.delta_h)

    def test_params_recorded(self, bigger_dfg):
        result = synthesize(bigger_dfg, SynthesisParams(k=5),
                            CostModel(bits=4))
        assert result.params == {"k": 5, "alpha": 2.0, "beta": 1.0,
                                 "bits": 4}


class TestBaselines:
    def test_camad_valid(self, bigger_dfg):
        result = run_camad(bigger_dfg)
        result.design.validate()
        assert result.design.label == "camad"

    def test_approach1_valid(self, bigger_dfg):
        result = run_approach1(bigger_dfg)
        result.design.validate()
        assert result.design.label == "approach1"

    def test_approach2_valid(self, bigger_dfg):
        result = run_approach2(bigger_dfg)
        result.design.validate()

    def test_ours_valid(self, bigger_dfg):
        result = run_ours(bigger_dfg)
        result.design.validate()
        assert result.design.label == "ours"

    def test_run_flow_dispatch(self, bigger_dfg):
        assert run_flow("camad", bigger_dfg).design.label == "camad"
        with pytest.raises(KeyError):
            run_flow("nope", bigger_dfg)

    def test_flows_share_latency_class(self, bigger_dfg):
        """The baselines schedule at the critical-path latency."""
        a1 = run_approach1(bigger_dfg).design
        a2 = run_approach2(bigger_dfg).design
        assert a1.num_steps == a2.num_steps

    def test_ours_improves_testability_quality(self, bigger_dfg):
        """The headline claim, in miniature: our flow's average node
        testability beats CAMAD's connectivity-driven result."""
        camad = run_camad(bigger_dfg).design
        ours = run_ours(bigger_dfg).design
        assert (analyze(ours.datapath).design_quality()
                >= analyze(camad.datapath).design_quality())


class TestVerifyMergers:
    def test_final_design_carries_a_valid_certificate(self, bigger_dfg):
        from repro.analysis import analyze_design
        result = synthesize(bigger_dfg)
        analysis = analyze_design(result.design)
        assert analysis.verified, analysis.report.summary()

    def test_every_candidate_design_is_certified_and_lint_clean(
            self, monkeypatch):
        """Every design a merger evaluation returns, applied or not,
        computes its DFG's behaviour and breaks no design rule."""
        import repro.synth.algorithm as algorithm
        from repro.analysis import analyze_design
        from repro.bench import load
        from repro.lint import lint_design

        try_merge = algorithm.try_merge
        evaluated = []

        def audited(*args, **kwargs):
            outcome = try_merge(*args, **kwargs)
            if outcome is not None:
                evaluated.append(outcome.design)
            return outcome

        monkeypatch.setattr(algorithm, "try_merge", audited)
        for name in ("ex", "diffeq", "dct"):
            evaluated.clear()
            result = run_ours(load(name), cost_model=CostModel(bits=4))
            assert result.history and len(evaluated) > result.iterations
            for design in evaluated:
                analysis = analyze_design(design)
                assert analysis.verified, analysis.report.summary()
                report = lint_design(design)
                assert not report.has_errors, [
                    d.format() for d in report.errors()]

"""Unit tests validating the benchmark reconstructions against the
paper's tables: operation counts and kinds, variable sets, and the
feasibility of the published module groupings."""

from collections import Counter

import pytest

from repro.bench import EXTRA_BENCHMARKS, TABLE_BENCHMARKS, load, names
from repro.bench import dct, diffeq, ex
from repro.dfg import OpKind, UnitClass, unit_class
from repro.etpn import default_design
from repro.synth import run_camad, run_ours


class TestRegistry:
    def test_all_names(self):
        assert names() == ["ar", "dct", "diffeq", "ewf", "ex", "fir8",
                           "iir", "paulin", "tseng"]

    def test_unknown_rejected(self):
        with pytest.raises(KeyError):
            load("nonexistent")

    @pytest.mark.parametrize("name", ["ex", "dct", "diffeq", "ewf",
                                      "paulin", "tseng"])
    def test_all_build_and_validate(self, name):
        dfg = load(name)
        default_design(dfg).validate()


class TestExAgainstTable1:
    def test_operation_identities(self):
        dfg = load("ex")
        mults = {o for o, op in dfg.operations.items()
                 if op.kind == OpKind.MUL}
        assert mults == {"N21", "N22", "N24", "N28"}
        subs = {o for o, op in dfg.operations.items()
                if op.kind == OpKind.SUB}
        assert subs == {"N25", "N27", "N29"}
        assert dfg.operation("N30").kind == OpKind.ADD

    def test_variable_set(self):
        dfg = load("ex")
        assert set(dfg.variables) == set("abcdefuvwxyz")

    def test_camad_register_count_is_twelve(self):
        # Table 1's CAMAD row lists one register per variable.
        dfg = load("ex")
        assert sum(v.needs_register() for v in dfg.variables.values()) == 12

    def test_paper_module_groups_are_class_compatible(self):
        dfg = load("ex")
        for group in ex.PAPER_OURS_MODULE_GROUPS:
            classes = {unit_class(dfg.operation(o).kind) for o in group}
            assert len(classes) == 1

    def test_paper_module_groups_are_chain_ordered(self):
        """Ops sharing a module must admit distinct steps: within each
        published group there is a dependence chain or independence —
        never a same-step *requirement*."""
        from repro.dfg.analysis import critical_path_length
        dfg = load("ex")
        assert critical_path_length(dfg) >= 4


class TestDctAgainstTable2:
    def test_operation_identities(self):
        dfg = load("dct")
        mults = {o for o, op in dfg.operations.items()
                 if op.kind == OpKind.MUL}
        assert mults == {"N31", "N33", "N35", "N38", "N40"}
        adds = {o for o, op in dfg.operations.items()
                if op.kind == OpKind.ADD}
        assert adds == {"N27", "N29", "N37", "N42", "N43", "N44"}
        subs = {o for o, op in dfg.operations.items()
                if op.kind == OpKind.SUB}
        assert subs == {"N28", "N30"}

    def test_variable_set(self):
        dfg = load("dct")
        expected = set("abcdefghij") | {"p1", "p2", "p3", "p4",
                                        "q2", "q3", "q4"}
        assert set(dfg.variables) == expected

    def test_paper_module_groups_are_class_compatible(self):
        dfg = load("dct")
        for group in dct.PAPER_OURS_MODULE_GROUPS:
            classes = {unit_class(dfg.operation(o).kind) for o in group}
            assert len(classes) == 1


class TestDiffeqAgainstTable3:
    def test_operation_identities(self):
        dfg = load("diffeq")
        mults = {o for o, op in dfg.operations.items()
                 if op.kind == OpKind.MUL}
        assert mults == {"N26", "N27", "N29", "N31", "N33", "N35"}
        assert dfg.operation("N24").kind == OpKind.LT

    def test_variable_set(self):
        dfg = load("diffeq")
        expected = {"x", "y", "u", "dx", "a1", "b", "c", "d", "e", "f",
                    "g", "u1", "y1", "x1", "cond"}
        assert set(dfg.variables) == expected

    def test_u1_accumulates(self):
        dfg = load("diffeq")
        assert dfg.defs_of("u1") == ["N25", "N30"]

    def test_loop_condition(self):
        dfg = load("diffeq")
        assert dfg.loop_condition == "cond"

    def test_paper_module_groups_are_class_compatible(self):
        dfg = load("diffeq")
        for group in diffeq.PAPER_OURS_MODULE_GROUPS:
            classes = {unit_class(dfg.operation(o).kind) for o in group}
            assert len(classes) == 1


class TestEwfShape:
    def test_operation_mix(self):
        dfg = load("ewf")
        counts = Counter(unit_class(op.kind) for op in dfg)
        assert counts[UnitClass.ALU] == 26
        assert counts[UnitClass.MULTIPLIER] == 8

    def test_deep_critical_path(self):
        from repro.dfg.analysis import critical_path_length
        assert critical_path_length(load("ewf")) >= 10


class TestSynthesisOnBenchmarks:
    @pytest.mark.parametrize("name", TABLE_BENCHMARKS)
    def test_ours_runs(self, name):
        result = run_ours(load(name))
        result.design.validate()
        assert result.iterations > 0

    @pytest.mark.parametrize("name", TABLE_BENCHMARKS)
    def test_ours_beats_default_on_hardware(self, name):
        from repro.cost import CostModel
        dfg = load(name)
        model = CostModel(bits=8)
        base = default_design(dfg)
        ours = run_ours(dfg, cost_model=model).design
        assert (model.hardware_total(ours.datapath)
                < model.hardware_total(base.datapath))

    @pytest.mark.parametrize("name", EXTRA_BENCHMARKS)
    def test_extra_benchmarks_flows(self, name):
        dfg = load(name)
        run_camad(dfg).design.validate()

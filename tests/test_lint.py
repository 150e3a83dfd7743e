"""Tests for the repro.lint design-rule checker.

Each rule is exercised against a seeded-broken design and asserted by
its stable diagnostic code; the six paper benchmarks must come out of
the full pipeline audit with zero errors.
"""

from __future__ import annotations

import types

import pytest

from repro.alloc.binding import Binding, default_binding, validate_binding
from repro.bench import load
from repro.dfg import DFGBuilder
from repro.dfg.graph import DFG, DependenceEdge, Operation, Variable
from repro.dfg.ops import OpKind
from repro.dfg.validate import validate_dfg
from repro.errors import BindingError, DFGError, PetriNetError, SynthesisError
from repro.etpn.from_dfg import default_design
from repro.gates.netlist import Gate, GateNetlist, GateType
from repro.lint import (Diagnostic, LintReport, Severity, all_rules,
                        lint_binding, lint_datapath, lint_design, lint_dfg,
                        lint_netlist, lint_petri, lint_pipeline,
                        lint_schedule, lint_structural)
from repro.petri import control_net_from_schedule
from repro.petri.net import PetriNet, Transition
from repro.sched.asap_alap import asap_schedule
from repro.synth import SynthesisParams, synthesize
from repro.synth.algorithm import _debug_lint

PAPER_BENCHMARKS = ("ex", "dct", "diffeq", "ewf", "paulin", "tseng")


def codes(report: LintReport) -> set[str]:
    return {d.code for d in report}


# ----------------------------------------------------------------------
# Seeded-broken designs, one per layer
# ----------------------------------------------------------------------
def broken_dfg() -> DFG:
    """Direct construction bypasses the builder's validation: one graph
    violating DFG003/004/005/006/007 at once."""
    variables = {
        "a": Variable("a", is_input=True),
        "c": Variable("c", is_condition=True),
        "z": Variable("z", is_output=True),
    }
    operations = {
        "N1": Operation("N1", OpKind.ADD, ("ghost", "a"), "z", order=0),
        "N2": Operation("N2", OpKind.ADD, ("c", "a"), "z", order=1),
        "N3": Operation("N3", OpKind.ADD, ("a", "a"), "phantom", order=2),
        "N4": Operation("N4", OpKind.ADD, ("a", "a"), "c", order=3),
    }
    return DFG("broken", variables, operations, list(operations),
               loop_condition="missing")


class TestDfgRules:
    def test_collects_every_structural_error(self):
        report = lint_dfg(broken_dfg())
        assert {"DFG003", "DFG004", "DFG005", "DFG006",
                "DFG007"} <= codes(report)
        assert report.has_errors

    def test_empty_dfg(self):
        report = lint_dfg(DFG("void", {}, {}, []))
        assert codes(report) == {"DFG001"}

    def test_no_primary_inputs(self):
        variables = {"z": Variable("z", is_output=True)}
        operations = {"N1": Operation("N1", OpKind.MOVE, ("z",), "z")}
        report = lint_dfg(DFG("closed", variables, operations, ["N1"]))
        assert "DFG002" in codes(report)

    def test_dependence_cycle(self, chain_dfg):
        edge = DependenceEdge("N3", "N1", "flow", "z")
        chain_dfg._edges.append(edge)
        chain_dfg._succ["N3"].append(edge)
        chain_dfg._pred["N1"].append(edge)
        assert "DFG008" in codes(lint_dfg(chain_dfg))

    def test_malformed_operation(self):
        variables = {"a": Variable("a", is_input=True),
                     "z": Variable("z", is_output=True)}
        operations = {
            "N1": Operation("N1", OpKind.ADD, ("a",), "z", order=0),
            "N2": Operation("N2", OpKind.ADD, ("a", "a"), None, order=1),
        }
        report = lint_dfg(DFG("odd", variables, operations, ["N1", "N2"]))
        found = [d for d in report if d.code == "DFG009"]
        assert {d.location for d in found} == {"N1", "N2"}

    def test_dead_operation_and_write_only_variable(self):
        b = DFGBuilder("deadcode")
        b.inputs("a", "b")
        b.op("N1", "+", "x", "a", "b")
        b.op("N2", "+", "waste", "x", "b")
        b.outputs("x")
        report = lint_dfg(b.build())
        assert {"DFG010", "DFG011"} <= codes(report)
        assert not report.has_errors  # dead code is a warning, not an error

    def test_unused_primary_input(self):
        b = DFGBuilder("dangling")
        b.inputs("a", "b", "unused")
        b.op("N1", "+", "x", "a", "b")
        b.outputs("x")
        report = lint_dfg(b.build())
        assert [d.location for d in report
                if d.code == "DFG012"] == ["unused"]

    def test_clean_dfg_is_clean(self, diamond_dfg):
        assert len(lint_dfg(diamond_dfg)) == 0


class TestSchedRules:
    def test_unscheduled_operation(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        del steps["N3"]
        assert "SCH001" in codes(lint_schedule(chain_dfg, steps))

    def test_unknown_scheduled_operation(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        steps["N9"] = 2
        assert "SCH002" in codes(lint_schedule(chain_dfg, steps))

    def test_negative_step(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        steps["N1"] = -1
        assert "SCH003" in codes(lint_schedule(chain_dfg, steps))

    def test_precedence_violation(self, chain_dfg):
        steps = {"N1": 0, "N2": 0, "N3": 1}
        report = lint_schedule(chain_dfg, steps)
        assert "SCH004" in codes(report)

    def test_empty_control_step_is_info(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        gapped = {op: step + 2 if step > 0 else step
                  for op, step in steps.items()}
        report = lint_schedule(chain_dfg, gapped)
        empty = [d for d in report if d.code == "SCH005"]
        assert empty and all(d.severity is Severity.INFO for d in empty)

    def test_asap_schedule_is_clean(self, diamond_dfg):
        report = lint_schedule(diamond_dfg, asap_schedule(diamond_dfg))
        assert not report.has_errors


class TestBindingRules:
    def test_unbound_everything(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        report = lint_binding(chain_dfg, steps, Binding())
        assert {"BND001", "BND002"} <= codes(report)
        assert len([d for d in report if d.code == "BND001"]) == 3

    def test_module_mixes_unit_classes(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        binding = default_binding(chain_dfg)
        binding.module_of["N2"] = "M_N1"  # ADD onto the multiplier
        assert "BND003" in codes(lint_binding(chain_dfg, steps, binding))

    def test_module_step_conflict(self, diamond_dfg):
        steps = asap_schedule(diamond_dfg)
        binding = default_binding(diamond_dfg)
        binding.module_of["N2"] = "M_N1"  # both MULs run in step 0
        assert "BND004" in codes(lint_binding(diamond_dfg, steps, binding))

    def test_register_lifetime_overlap(self, diamond_dfg):
        steps = asap_schedule(diamond_dfg)
        binding = default_binding(diamond_dfg)
        binding.register_of["y"] = binding.register_of["x"]
        assert "BND005" in codes(lint_binding(diamond_dfg, steps, binding))

    def test_register_for_condition_variable(self, loop_dfg):
        steps = asap_schedule(loop_dfg)
        binding = default_binding(loop_dfg)
        binding.register_of["c"] = "R_c"
        report = lint_binding(loop_dfg, steps, binding)
        assert "BND006" in codes(report)
        assert not report.has_errors

    def test_stale_binding_entries(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        binding = default_binding(chain_dfg)
        binding.module_of["N99"] = "M_gone"
        binding.register_of["ghost"] = "R_gone"
        stale = [d for d in lint_binding(chain_dfg, steps, binding)
                 if d.code == "BND007"]
        assert len(stale) == 2

    def test_default_binding_is_clean(self, diamond_dfg):
        steps = asap_schedule(diamond_dfg)
        report = lint_binding(diamond_dfg, steps,
                              default_binding(diamond_dfg))
        assert not report.has_errors


class TestPetriRules:
    def test_empty_net(self):
        report = lint_petri(PetriNet("void"))
        assert codes(report) == {"NET001"}

    def test_no_initial_marking(self):
        net = PetriNet("dark")
        net.add_place("p0")
        assert "NET002" in codes(lint_petri(net))

    def test_unreachable_structure(self):
        net = PetriNet("island")
        net.add_place("p0")
        net.add_place("p1")
        net.add_place("p2")
        net.add_transition("t1", ["p1"], ["p2"])
        net.set_initial("p0")
        net.set_final("p2")
        report = lint_petri(net)
        assert {"NET003", "NET004", "NET005"} <= codes(report)
        assert not report.has_errors  # reachability findings are warnings

    def test_sourceless_transition(self):
        net = PetriNet("free")
        net.add_place("p0")
        net.set_initial("p0")
        # add_transition() rejects sourceless transitions, so seed one
        # behind the API's back the way an external reader could.
        net.transitions["tx"] = Transition("tx", (), ("p0",))
        assert "NET006" in codes(lint_petri(net))

    def test_control_net_of_design_is_clean(self, loop_dfg):
        design = default_design(loop_dfg)
        assert not lint_petri(design.control_net).has_errors

    def test_validate_delegates_to_rules(self):
        with pytest.raises(PetriNetError, match="no places"):
            PetriNet("void").validate()


def seeded_gate_netlist() -> GateNetlist:
    """A netlist violating most gate rules at once (gates appended
    directly, bypassing the construction API's guards)."""
    nl = GateNetlist("mess")
    a = nl.add_input("a")
    nl.add_input("unused")                                     # GAT006
    nl.add_dff("float")                                        # GAT001
    g1 = len(nl.gates)
    nl.gates.append(Gate(g1, GateType.AND, (a, g1 + 1)))       # GAT002
    nl.gates.append(Gate(g1 + 1, GateType.AND, (g1, a)))
    nl.gates.append(Gate(g1 + 2, GateType.OR, (a, 99)))        # GAT003
    nl.gates.append(Gate(g1 + 3, GateType.DFF, (a, a), "dd"))  # GAT005
    nl.gates.append(Gate(g1 + 4, GateType.AND, (a,)))          # GAT007
    nl.set_output("z", g1 + 1)
    nl.outputs["bad"] = 99                                     # GAT008
    return nl


class TestGateRules:
    def test_seeded_netlist_hits_every_error_rule(self):
        report = lint_netlist(seeded_gate_netlist())
        assert {"GAT001", "GAT002", "GAT003", "GAT005", "GAT006",
                "GAT007", "GAT008"} <= codes(report)

    def test_dead_gate_is_warning(self):
        nl = GateNetlist("waste")
        a = nl.add_input("a")
        nl.add(GateType.NOT, (a,), name="na")
        nl.set_output("z", a)
        report = lint_netlist(nl)
        assert "GAT004" in codes(report)
        assert not report.has_errors

    def test_clean_netlist_is_clean(self):
        nl = GateNetlist("ok")
        a = nl.add_input("a")
        b = nl.add_input("b")
        d = nl.add_dff("state")
        g = nl.add(GateType.AND, (a, b))
        x = nl.add(GateType.XOR, (g, d))
        nl.connect_dff(d, x)
        nl.set_output("z", x)
        assert len(lint_netlist(nl)) == 0

    def test_check_complete_reports_all_floating_dffs(self):
        nl = GateNetlist("t")
        nl.add_dff("r0")
        nl.add_dff("r1")
        with pytest.raises(Exception) as excinfo:
            nl.check_complete()
        assert "r0" in str(excinfo.value) and "r1" in str(excinfo.value)


class TestTestabilityRules:
    def test_self_loop_detected(self, multidef_dfg):
        design = default_design(multidef_dfg)
        assert "TST001" in codes(lint_datapath(design.datapath))

    def test_deep_sequential_path(self):
        b = DFGBuilder("deep")
        b.inputs("a", "b")
        prev = "a"
        for i in range(1, 11):
            b.op(f"N{i}", "+", f"c{i}", prev, "b")
            prev = f"c{i}"
        b.outputs(prev)
        design = default_design(b.build())
        report = lint_datapath(design.datapath, depth_limit=3.0)
        assert "TST002" in codes(report)

    def test_unobservable_register(self):
        b = DFGBuilder("deadend")
        b.inputs("a", "b")
        b.op("N1", "+", "x", "a", "b")
        b.op("N2", "+", "dead", "x", "b")
        b.outputs("x")
        design = default_design(b.build())
        report = lint_datapath(design.datapath)
        assert any(d.code == "TST003" and d.location == "R_dead"
                   for d in report)


# ----------------------------------------------------------------------
# Aggregate checkers, validator delegation, synthesis hook
# ----------------------------------------------------------------------
class TestAggregates:
    def test_lint_design_clean(self, chain_dfg):
        report = lint_design(default_design(chain_dfg))
        assert not report.has_errors

    def test_lint_pipeline_stops_on_dfg_errors(self):
        report = lint_pipeline(broken_dfg())
        assert report.has_errors
        assert all(d.layer == "dfg" for d in report)

    def test_lint_pipeline_reports_derivation_failure(self, monkeypatch):
        import repro.etpn.from_dfg as from_dfg_mod
        from repro.errors import ReproError

        def boom(dfg, label="default"):
            raise ReproError("seeded failure")

        monkeypatch.setattr(from_dfg_mod, "default_design", boom)
        report = lint_pipeline(load("ex"), gates=False)
        assert "LNT001" in codes(report)

    def test_seeded_designs_cover_many_rules(self, chain_dfg, diamond_dfg,
                                             multidef_dfg):
        seen: set[str] = set()
        seen |= codes(lint_dfg(broken_dfg()))
        seen |= codes(lint_schedule(chain_dfg, {"N1": -1, "N3": 0, "N9": 5}))
        seen |= codes(lint_binding(chain_dfg, asap_schedule(chain_dfg),
                                   Binding()))
        net = PetriNet("island")
        net.add_place("p0")
        net.add_place("p1")
        net.add_transition("t1", ["p1"], ["p1"])
        net.set_initial("p0")
        seen |= codes(lint_petri(net))
        seen |= codes(lint_netlist(seeded_gate_netlist()))
        seen |= codes(lint_datapath(default_design(multidef_dfg).datapath))
        assert len(seen) >= 12, sorted(seen)

    def test_every_registered_rule_has_a_distinct_code(self):
        rules = all_rules()
        assert len({r.code for r in rules}) == len(rules) >= 30


class TestValidatorDelegation:
    def test_validate_dfg_lists_every_violation(self):
        with pytest.raises(DFGError) as excinfo:
            validate_dfg(broken_dfg())
        message = str(excinfo.value)
        assert "reads unknown variable 'ghost'" in message
        assert "unknown loop condition 'missing'" in message

    def test_validate_binding_lists_every_violation(self, chain_dfg):
        steps = asap_schedule(chain_dfg)
        with pytest.raises(BindingError) as excinfo:
            validate_binding(chain_dfg, steps, Binding())
        message = str(excinfo.value)
        assert "unbound operation N1" in message
        assert "unbound variable" in message

    def test_validate_dfg_accepts_clean_graph(self, diamond_dfg):
        validate_dfg(diamond_dfg)  # must not raise


def _raised(validate, error) -> str | None:
    """The message ``validate()`` raises, or None when it passes."""
    try:
        validate()
    except error as exc:
        return str(exc)
    return None


def _full_run_errors(report: LintReport) -> str | None:
    """What a validator built on the whole layer's report would raise."""
    errors = report.errors()
    return "; ".join(d.message for d in errors) if errors else None


def _cyclic_chain(request):
    dfg = request.getfixturevalue("chain_dfg")
    edge = DependenceEdge("N3", "N1", "flow", "z")
    dfg._edges.append(edge)
    dfg._succ["N3"].append(edge)
    dfg._pred["N1"].append(edge)
    return dfg


def _dead_code(request):
    b = DFGBuilder("deadcode")
    b.inputs("a", "b")
    b.op("N1", "+", "x", "a", "b")
    b.op("N2", "+", "waste", "x", "b")
    b.outputs("x")
    return b.build()


DFG_CASES = {
    "broken": lambda request: broken_dfg(),
    "empty": lambda request: DFG("void", {}, {}, []),
    "no-inputs": lambda request: DFG(
        "closed", {"z": Variable("z", is_output=True)},
        {"N1": Operation("N1", OpKind.MOVE, ("z",), "z")}, ["N1"]),
    "cycle": _cyclic_chain,
    "malformed": lambda request: DFG(
        "odd", {"a": Variable("a", is_input=True),
                "z": Variable("z", is_output=True)},
        {"N1": Operation("N1", OpKind.ADD, ("a",), "z", order=0),
         "N2": Operation("N2", OpKind.ADD, ("a", "a"), None, order=1)},
        ["N1", "N2"]),
    "dead-code-warnings": _dead_code,
    "clean": lambda request: request.getfixturevalue("diamond_dfg"),
}


def _net(name, places, transitions, initial=(), final=()):
    net = PetriNet(name)
    for place in places:
        net.add_place(place)
    for trans_id, inputs, outputs in transitions:
        if inputs:
            net.add_transition(trans_id, inputs, outputs)
        else:  # sourceless: seeded behind the API's back
            net.transitions[trans_id] = Transition(trans_id, (),
                                                   tuple(outputs))
    net.set_initial(*initial)
    net.set_final(*final)
    return net


NET_CASES = {
    "empty": lambda: PetriNet("void"),
    "no-marking": lambda: _net("dark", ["p0"], []),
    "sourceless": lambda: _net("free", ["p0"], [("tx", [], ["p0"])],
                               initial=["p0"]),
    "sourceless-unmarked": lambda: _net("both", ["p0"],
                                        [("tx", [], ["p0"])]),
    "island-warnings": lambda: _net(
        "island", ["p0", "p1", "p2"], [("t1", ["p1"], ["p2"])],
        initial=["p0"], final=["p2"]),
    "unsafe-warning": lambda: _net("unsafe", ["P0", "A"],
                                   [("t", ["P0"], ["A"])],
                                   initial=["P0", "A"]),
    "clean": lambda: _net("chain", ["S0", "S1"], [("t0", ["S0"], ["S1"])],
                          initial=["S0"], final=["S1"]),
}


def _rebind(dfg_name, edit):
    def build(request):
        dfg = request.getfixturevalue(dfg_name)
        binding = default_binding(dfg)
        edit(binding)
        return dfg, binding
    return build


BINDING_CASES = {
    "unbound": lambda request: (request.getfixturevalue("chain_dfg"),
                                Binding()),
    "mixed-classes": _rebind("chain_dfg", lambda b: b.module_of.update(
        N2="M_N1")),
    "step-conflict": _rebind("diamond_dfg", lambda b: b.module_of.update(
        N2="M_N1")),
    "lifetime-overlap": _rebind("diamond_dfg", lambda b: b.register_of.update(
        y=b.register_of["x"])),
    "condition-register-warning": _rebind(
        "loop_dfg", lambda b: b.register_of.update(c="R_c")),
    "stale-warning": _rebind("chain_dfg", lambda b: (
        b.module_of.update(N99="M_gone"),
        b.register_of.update(ghost="R_gone"))),
    "clean": _rebind("diamond_dfg", lambda b: None),
}


class TestValidatorsRunErrorRulesOnly:
    """Each raise-style validator raises exactly what the errors of a
    full layer run list, while running only the error rules."""

    @pytest.mark.parametrize("case", sorted(DFG_CASES))
    def test_validate_dfg_matches_full_layer(self, case, request):
        dfg = DFG_CASES[case](request)
        assert _raised(lambda: validate_dfg(dfg), DFGError) \
            == _full_run_errors(lint_dfg(dfg))

    @pytest.mark.parametrize("case", sorted(NET_CASES))
    def test_petri_validate_matches_full_layer(self, case):
        net = NET_CASES[case]()
        assert _raised(net.validate, PetriNetError) \
            == _full_run_errors(lint_petri(net))

    @pytest.mark.parametrize("case", sorted(BINDING_CASES))
    def test_validate_binding_matches_full_layer(self, case, request):
        dfg, binding = BINDING_CASES[case](request)
        steps = asap_schedule(dfg)
        assert _raised(lambda: validate_binding(dfg, steps, binding),
                       BindingError) \
            == _full_run_errors(lint_binding(dfg, steps, binding))

    def test_petri_validate_builds_no_structural_certificate(
            self, monkeypatch):
        import repro.lint.rules_structural as rules_structural
        calls = []

        def certificate(net, **kwargs):
            calls.append(net.name)
            raise AssertionError("validate() built a structural certificate")

        monkeypatch.setattr(rules_structural, "structural_certificate",
                            certificate)
        for build in NET_CASES.values():
            _raised(build().validate, PetriNetError)
        control_net_from_schedule("loop", 6, loop_condition="c").validate()
        assert calls == []
        lint_petri(NET_CASES["clean"]())  # the full layer does build one
        assert calls == ["chain"]


class TestSynthesisHook:
    def test_debug_lint_passes_on_legal_mergers(self, diamond_dfg):
        result = synthesize(diamond_dfg, SynthesisParams(debug_lint=True))
        assert result.design.label == "ours"

    def test_debug_lint_raises_on_illegal_design(self, chain_dfg):
        design = default_design(chain_dfg).replaced(binding=Binding())
        outcome = types.SimpleNamespace(kind="mm", absorbed="M_a",
                                        kept="M_b")
        with pytest.raises(SynthesisError, match="lint errors after merger"):
            _debug_lint(design, 0, outcome)


class TestDiagnosticFormatting:
    def test_format_and_dict_round_trip(self):
        diag = Diagnostic(code="DFG001", severity=Severity.ERROR,
                          layer="dfg", location="N1", message="boom",
                          hint="fix it")
        text = diag.format()
        assert "DFG001" in text and "boom" in text and "fix it" in text
        data = diag.to_dict()
        assert data["code"] == "DFG001"
        assert data["severity"] == "error"

    def test_report_strict_mode(self):
        report = LintReport()
        report.add(Diagnostic(code="TST001", severity=Severity.WARNING,
                              layer="testability", location="",
                              message="smell"))
        assert report.ok(strict=False)
        assert not report.ok(strict=True)


# ----------------------------------------------------------------------
# The six paper benchmarks must audit clean end-to-end
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", PAPER_BENCHMARKS)
def test_benchmark_pipeline_has_no_errors(name):
    report = lint_pipeline(load(name), bits=4)
    assert not report.has_errors, report.format_text()


class TestReportDeterminism:
    def _diag(self, code="DFG001", location="N1", message="boom"):
        return Diagnostic(code=code, severity=Severity.ERROR, layer="dfg",
                          location=location, message=message)

    def test_exact_duplicates_collapse(self):
        report = LintReport()
        report.add(self._diag())
        report.add(self._diag())
        assert len(report) == 1
        # A differing field keeps the finding distinct.
        report.add(self._diag(location="N2"))
        assert len(report) == 2

    def test_extend_deduplicates(self):
        left, right = LintReport(), LintReport()
        left.add(self._diag())
        right.add(self._diag())
        right.add(self._diag(message="other"))
        left.extend(right)
        assert len(left) == 2

    def test_sorted_is_a_total_order(self):
        a = self._diag(location="N1", message="alpha")
        b = self._diag(location="N1", message="beta")
        forward, backward = LintReport(), LintReport()
        forward.add(a)
        forward.add(b)
        backward.add(b)
        backward.add(a)
        assert forward.sorted() == backward.sorted()
        assert forward.format_text() == backward.format_text()

    def test_repeated_runs_render_identically(self, diamond_dfg):
        first = lint_pipeline(diamond_dfg, gates=False).format_text()
        second = lint_pipeline(diamond_dfg, gates=False).format_text()
        assert first == second


def invariant_dead_net() -> PetriNet:
    """Free choice feeding a join: structure proves the join dead
    (its inputs are mutually exclusive) and the closed net has an
    uncontrolled siphon — yet every place is closure-reachable, so the
    NET layer sees nothing wrong."""
    net = PetriNet("invdead")
    for p in ("S0", "A", "B", "J"):
        net.add_place(p)
    net.add_transition("ta", ["S0"], ["A"])
    net.add_transition("tb", ["S0"], ["B"])
    net.add_transition("join", ["A", "B"], ["J"])
    net.set_initial("S0")
    net.set_final("J")
    return net


class TestStructuralRules:
    def test_invariant_dead_transition_found(self):
        report = lint_structural(invariant_dead_net())
        dead = [d for d in report if d.code == "STR004"]
        assert [d.location for d in dead] == ["join"]

    def test_uncontrolled_siphon_found(self):
        report = lint_structural(invariant_dead_net())
        assert "STR005" in codes(report)

    def test_petri_layer_is_blind_to_invariant_deadness(self):
        # The closure reaches every place, so NET004/NET005 stay quiet:
        # only the invariant arithmetic exposes the dead join.
        report = lint_petri(invariant_dead_net())
        assert not any(d.code.startswith("NET") for d in report)

    def test_benchmark_designs_are_structurally_clean(self):
        for name in PAPER_BENCHMARKS:
            design = default_design(load(name))
            report = lint_structural(design.control_net)
            assert len(report) == 0, report.format_text()

    def test_net007_skips_bfs_when_structure_proves_safety(self,
                                                           monkeypatch,
                                                           chain_dfg):
        # With the structural tier proving safety, NET007 must not
        # enumerate at all: a reachability graph constructor that blows
        # up on contact proves the dedupe.
        import repro.petri.reachability as reachability_mod

        def boom(*args, **kwargs):
            raise AssertionError("NET007 enumerated a proven-safe net")

        monkeypatch.setattr(reachability_mod, "ReachabilityGraph", boom)
        net = default_design(chain_dfg).control_net
        report = lint_petri(net)
        assert "NET007" not in codes(report)
        assert not report.has_errors

    def test_certificate_self_check_rule_exists(self):
        assert "STR006" in {r.code for r in all_rules()}

    def test_lint_design_includes_structural_layer(self, chain_dfg):
        report = lint_design(default_design(chain_dfg))
        assert not report.has_errors
        # The layer ran (its rules are registered and the run crashed
        # nowhere), even though a healthy design yields no findings.
        assert "LNT001" not in codes(report)


class TestAnalysisLayerIntegration:
    def test_lint_design_includes_analysis_layer(self, diamond_dfg):
        design = default_design(diamond_dfg)
        broken = design.replaced(
            binding=design.binding.merge_registers("R_x", "R_y"))
        report = lint_design(broken)
        assert "EQV005" in codes(report)
        # The same double-booking also violates the lifetime rule, and
        # both families report it — from their own layers.
        layers = {d.layer for d in report if d.code.startswith("EQV")}
        assert layers == {"analysis"}

    def test_clean_design_still_clean(self, chain_dfg):
        report = lint_design(default_design(chain_dfg))
        assert not report.has_errors

"""Final corner-case tests across small helpers."""

import pytest

from repro.alloc import Binding, default_binding
from repro.bench import load
from repro.cost import floorplan
from repro.cost.library import DEFAULT_LIBRARY
from repro.errors import BindingError
from repro.etpn import default_design
from repro.gates import GateNetlist, GateType
from repro.gates.prune import observable_gates, prune_unobservable
from repro.synth import SynthesisResult, run_ours


class TestBindingCorners:
    def test_merge_registers_unknown(self, chain_dfg):
        binding = default_binding(chain_dfg)
        with pytest.raises(BindingError):
            binding.merge_registers("R_a", "R_nothere")

    def test_empty_binding_counts(self):
        binding = Binding()
        assert binding.module_count() == 0
        assert binding.register_count() == 0
        assert binding.modules() == {}


class TestFloorplanCorners:
    def test_minimum_wirelength_one_pitch(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        plan = floorplan(dp, DEFAULT_LIBRARY.slot_pitch_mm)
        # Any two placed nodes are at least one pitch of wire apart.
        nodes = sorted(dp.nodes)
        assert (plan.wirelength_mm(nodes[0], nodes[1])
                >= DEFAULT_LIBRARY.slot_pitch_mm)

    def test_single_node_graph(self):
        from repro.dfg import DFGBuilder
        b = DFGBuilder("one")
        b.inputs("a")
        b.op("N1", "~", "x", "a")
        dp = default_design(b.build()).datapath
        plan = floorplan(dp, 0.1)
        assert len(plan.positions) == len(dp.nodes)


class TestPruneCorners:
    def test_dff_cone_kept_when_observable(self):
        net = GateNetlist("p")
        q = net.add_dff("q")
        a = net.add_input("a")
        d = net.add(GateType.XOR, (q, a))
        net.connect_dff(q, d)
        net.set_output("o", q)
        pruned = prune_unobservable(net)
        assert pruned.stats()["dffs"] == 1
        assert pruned.stats()["combinational"] == 1  # the XOR survives

    def test_dead_cone_dropped(self):
        net = GateNetlist("p2")
        a = net.add_input("a")
        b = net.add_input("b")
        keep = net.add(GateType.AND, (a, b))
        net.add(GateType.OR, (a, b))    # dead
        net.set_output("o", keep)
        pruned = prune_unobservable(net)
        assert pruned.stats()["combinational"] == 1
        assert len(observable_gates(net)) == 3

    def test_dead_inputs_kept(self):
        net = GateNetlist("p3")
        a = net.add_input("a")
        net.add_input("unused")
        net.set_output("o", net.add(GateType.BUF, (a,)))
        pruned = prune_unobservable(net)
        assert "unused" in pruned.inputs


class TestResultCorners:
    def test_result_summary(self):
        result = run_ours(load("tseng"))
        summary = result.summary()
        assert summary["label"] == "ours"
        assert summary["iterations"] == result.iterations
        assert "registers" in summary

    def test_empty_history_result(self, chain_dfg):
        design = default_design(chain_dfg)
        result = SynthesisResult(design)
        assert result.iterations == 0
        assert result.summary()["iterations"] == 0

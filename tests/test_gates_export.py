"""Unit tests for Verilog export."""

import re

import pytest

from repro.bench import load
from repro.etpn import default_design
from repro.gates import expand_to_gates, GateNetlist, GateType
from repro.gates.verilog import netlist_to_verilog
from repro.rtl import generate_rtl
from repro.synth import run_ours


@pytest.fixture(scope="module")
def small_netlist():
    net = GateNetlist("toy")
    q = net.add_dff("q[0]")
    a = net.add_input("a")
    b = net.add_input("b")
    g1 = net.add(GateType.AND, (a, b))
    d = net.add(GateType.XOR, (q, g1))
    net.connect_dff(q, d)
    net.set_output("o", d)
    return net


class TestVerilog:
    def test_module_structure(self, small_netlist):
        text = netlist_to_verilog(small_netlist)
        assert text.startswith("// Generated by repro")
        assert "module toy (" in text
        assert text.rstrip().endswith("endmodule")
        assert "input clk, rst;" in text

    def test_gate_primitives(self, small_netlist):
        text = netlist_to_verilog(small_netlist)
        assert re.search(r"\band g\d+ \(", text)
        assert re.search(r"\bxor g\d+ \(", text)

    def test_dff_always_block(self, small_netlist):
        text = netlist_to_verilog(small_netlist)
        assert "always @(posedge clk or posedge rst)" in text
        assert "<= 1'b0;" in text

    def test_escaped_identifiers(self):
        design = default_design(load("tseng"))
        net = expand_to_gates(generate_rtl(design, 4))
        text = netlist_to_verilog(net)
        # Bit-indexed ports like in_a[0] need escaping.
        assert "\\in_a[0] " in text

    def test_balanced_module(self, small_netlist):
        text = netlist_to_verilog(small_netlist)
        assert text.count("module") - text.count("endmodule") \
            == text.count("endmodule")  # exactly one of each
        assert text.count("endmodule") == 1

    def test_full_design_emits(self):
        design = run_ours(load("ex")).design
        net = expand_to_gates(generate_rtl(design, 4))
        text = netlist_to_verilog(net)
        assert "module ex (" in text  # named after the netlist
        # Every gate is either a wire or a reg exactly once.
        assert text.count("wire n") + text.count("reg n") == len(net)


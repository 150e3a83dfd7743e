"""Property-based tests for serialisation and exports."""

from hypothesis import given, settings

from repro.etpn import default_design
from repro.gates import expand_to_gates, netlist_to_verilog
from repro.io import design_to_dict, dfg_to_dict
from repro.rtl import generate_rtl

from .test_io_dot import check_design_dict, check_dfg_dict, json_text
from .test_properties import dfgs


@settings(max_examples=40, deadline=None)
@given(dfgs())
def test_dfg_roundtrip_preserves_everything(dfg):
    check_dfg_dict(json_text(dfg_to_dict(dfg)), dfg)


@settings(max_examples=25, deadline=None)
@given(dfgs())
def test_design_roundtrip_preserves_everything(dfg):
    design = default_design(dfg)
    check_design_dict(json_text(design_to_dict(design)), design)


@settings(max_examples=10, deadline=None)
@given(dfgs())
def test_verilog_emits_for_any_design(dfg):
    netlist = expand_to_gates(generate_rtl(default_design(dfg), 2))
    text = netlist_to_verilog(netlist)
    assert text.count("endmodule") == 1
    # Every DFF appears in the reset branch.
    assert text.count("<= 1'b0;") == len(netlist.dffs())

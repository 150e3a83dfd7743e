"""Unit tests for design serialisation and dot export."""

import json

import pytest

from repro.bench import load
from repro.cli import main
from repro.cost import CostModel
from repro.dfg.graph import Const
from repro.dfg.ops import OpKind
from repro.etpn import default_design
from repro.etpn.dot import datapath_to_dot
from repro.io import design_to_dict, dfg_to_dict
from repro.rtl import apply_op, evaluate_dfg, mask
from repro.synth import run_ours

NAMED = ["ex", "dct", "diffeq", "tseng"]


def json_text(data: dict) -> dict:
    """``data`` read back from the JSON text ``export --what json``
    prints."""
    return json.loads(json.dumps(data, indent=2))


def check_dfg_dict(data: dict, dfg) -> None:
    """``data`` holds all of ``dfg``: its name, inputs, outputs and loop
    condition, and each operation's id, kind, dst and sources in
    ``op_order``."""
    assert data["format"] == "repro-dfg-v1"
    assert data["name"] == dfg.name
    variables = dfg.variables.values()
    assert data["inputs"] == sorted(v.name for v in variables if v.is_input)
    assert data["outputs"] == sorted(v.name for v in variables
                                     if v.is_output)
    assert data["loop_condition"] == dfg.loop_condition
    operations = data["operations"]
    assert [entry["id"] for entry in operations] == dfg.op_order
    for entry in operations:
        op = dfg.operation(entry["id"])
        assert entry["kind"] == op.kind.name
        assert entry["dst"] == op.dst
        assert all(len(src) == 1 for src in entry["srcs"])
        assert tuple(Const(src["const"]) if "const" in src else src["var"]
                     for src in entry["srcs"]) == op.srcs


def evaluate_dfg_dict(data: dict, inputs: dict[str, int],
                      bits: int) -> dict[str, int]:
    """Interpret the serialised DFG ``data`` once, straight from its
    operations in their listed order, as :func:`evaluate_dfg` interprets
    a DFG."""
    values = {name: inputs[name] & mask(bits) for name in data["inputs"]}
    for entry in data["operations"]:
        operands = [src["const"] & mask(bits) if "const" in src
                    else values[src["var"]] for src in entry["srcs"]]
        if len(operands) == 1:
            operands.append(0)
        result = apply_op(OpKind[entry["kind"]], operands[0], operands[1],
                          bits)
        if entry["dst"] is not None:
            values[entry["dst"]] = result
    return values


def check_design_dict(data: dict, design) -> None:
    """``data`` holds all of ``design``: its DFG, label, steps and
    binding."""
    assert data["format"] == "repro-design-v1"
    assert data["label"] == design.label
    check_dfg_dict(data["dfg"], design.dfg)
    assert data["steps"] == design.steps
    assert data["module_of"] == design.binding.module_of
    assert data["register_of"] == design.binding.register_of


class TestDfgRoundTrip:
    """A DFG through the JSON text of its serialisation."""

    @pytest.mark.parametrize("name", NAMED)
    def test_roundtrip_structure(self, name):
        dfg = load(name)
        check_dfg_dict(json_text(dfg_to_dict(dfg)), dfg)

    def test_roundtrip_behaviour(self):
        original = load("diffeq")
        data = json_text(dfg_to_dict(original))
        inputs = {"x": 3, "y": 5, "u": 7, "dx": 2, "a1": 50}
        assert (evaluate_dfg(original, inputs, 8)
                == evaluate_dfg_dict(data, inputs, 8))

    def test_constants_preserved(self):
        data = json_text(dfg_to_dict(load("diffeq")))
        [n26] = [op for op in data["operations"] if op["id"] == "N26"]
        assert n26["srcs"][0] == {"const": 3}


class TestDesignRoundTrip:
    """A design point through the JSON text of its serialisation."""

    @pytest.mark.parametrize("name", NAMED)
    def test_roundtrip_structure(self, name):
        design = run_ours(load(name)).design
        check_design_dict(json_text(design_to_dict(design)), design)

    def test_file_roundtrip(self, capsys):
        # The JSON text ``export --what json`` prints is the whole design.
        assert main(["export", "diffeq", "--what", "json"]) == 0
        design = run_ours(load("diffeq"), cost_model=CostModel(bits=8)).design
        check_design_dict(json.loads(capsys.readouterr().out), design)


class TestDotExport:
    def test_datapath_dot_structure(self):
        design = default_design(load("tseng"))
        dot = datapath_to_dot(design.datapath)
        assert dot.startswith('digraph "tseng"')
        assert dot.rstrip().endswith("}")
        for node_id in design.datapath.nodes:
            assert f'"{node_id}"' in dot

    def test_condition_arcs_dashed(self):
        design = default_design(load("diffeq"))
        dot = datapath_to_dot(design.datapath)
        assert "style=dashed" in dot

    def test_dot_is_parseable_brackets(self):
        design = default_design(load("ex"))
        dot = datapath_to_dot(design.datapath)
        assert dot.count("{") == dot.count("}")

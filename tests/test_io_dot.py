"""Unit tests for design serialisation and dot export."""

import json

import pytest

from repro.bench import load
from repro.errors import ReproError
from repro.etpn import default_design
from repro.etpn.dot import datapath_to_dot
from repro.io import (design_from_dict, design_to_dict, dfg_from_dict,
                      dfg_to_dict)
from repro.rtl import evaluate_dfg
from repro.synth import run_ours


class TestDfgRoundTrip:
    @pytest.mark.parametrize("name", ["ex", "dct", "diffeq", "tseng"])
    def test_roundtrip_structure(self, name):
        original = load(name)
        rebuilt = dfg_from_dict(dfg_to_dict(original))
        assert rebuilt.name == original.name
        assert set(rebuilt.operations) == set(original.operations)
        assert set(rebuilt.variables) == set(original.variables)
        assert rebuilt.loop_condition == original.loop_condition

    def test_roundtrip_behaviour(self):
        original = load("diffeq")
        rebuilt = dfg_from_dict(dfg_to_dict(original))
        inputs = {"x": 3, "y": 5, "u": 7, "dx": 2, "a1": 50}
        assert (evaluate_dfg(original, inputs, 8)
                == evaluate_dfg(rebuilt, inputs, 8))

    def test_constants_preserved(self):
        rebuilt = dfg_from_dict(dfg_to_dict(load("diffeq")))
        from repro.dfg.graph import Const
        assert rebuilt.operation("N26").srcs[0] == Const(3)

    def test_format_tag_checked(self):
        with pytest.raises(ReproError):
            dfg_from_dict({"format": "other"})


class TestDesignRoundTrip:
    def test_roundtrip_validates(self):
        design = run_ours(load("ex")).design
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.steps == design.steps
        assert rebuilt.binding.module_of == design.binding.module_of
        assert rebuilt.binding.register_of == design.binding.register_of
        assert rebuilt.label == design.label
        assert rebuilt.summary() == design.summary()

    def test_file_roundtrip(self):
        # The JSON text ``export --what json`` prints reloads as the design.
        design = run_ours(load("diffeq")).design
        data = json.loads(json.dumps(design_to_dict(design), indent=2))
        assert data["format"] == "repro-design-v1"
        assert design_from_dict(data).steps == design.steps

    def test_tampered_schedule_rejected(self, tmp_path):
        from repro.errors import ReproError
        design = run_ours(load("ex")).design
        data = design_to_dict(design)
        first_op = next(iter(data["steps"]))
        data["steps"][first_op] = 99  # break precedence/binding
        with pytest.raises(ReproError):
            design_from_dict(data)

    def test_format_tag_checked(self):
        with pytest.raises(ReproError):
            design_from_dict({"format": "nope"})


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

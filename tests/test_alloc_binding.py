"""Unit tests for bindings, merging and binding validation."""

import pytest

from repro.alloc import (default_binding, module_unit_class,
                         validate_binding)
from repro.dfg import UnitClass
from repro.errors import BindingError


class TestDefaultBinding:
    def test_one_module_per_op(self, chain_dfg):
        binding = default_binding(chain_dfg)
        assert binding.module_count() == 3
        assert binding.module_of["N1"] == "M_N1"

    def test_one_register_per_variable(self, chain_dfg):
        binding = default_binding(chain_dfg)
        # a, b, c, d, x, y, z all need registers.
        assert binding.register_count() == 7

    def test_conditions_get_no_register(self, loop_dfg):
        binding = default_binding(loop_dfg)
        assert "c" not in binding.register_of


class TestMerging:
    def test_merge_modules(self, chain_dfg):
        binding = default_binding(chain_dfg)
        merged = binding.merge_modules("M_N2", "M_N3")
        assert merged.module_of["N3"] == "M_N2"
        assert merged.module_count() == 2
        # Original untouched.
        assert binding.module_of["N3"] == "M_N3"

    def test_merge_registers(self, chain_dfg):
        binding = default_binding(chain_dfg)
        merged = binding.merge_registers("R_a", "R_x")
        assert merged.register_of["x"] == "R_a"
        assert merged.register_count() == 6

    def test_merge_module_with_itself(self, chain_dfg):
        binding = default_binding(chain_dfg)
        with pytest.raises(BindingError):
            binding.merge_modules("M_N1", "M_N1")

    def test_merge_unknown_module(self, chain_dfg):
        binding = default_binding(chain_dfg)
        with pytest.raises(BindingError):
            binding.merge_modules("M_N1", "M_nothere")

    def test_groupings(self, chain_dfg):
        binding = default_binding(chain_dfg).merge_modules("M_N2", "M_N3")
        assert binding.modules()["M_N2"] == ["N2", "N3"]
        assert binding.ops_on("M_N2") == ["N2", "N3"]
        assert binding.registers()["R_a"] == ["a"]


class TestValidation:
    def test_default_design_valid(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        validate_binding(chain_dfg, steps, default_binding(chain_dfg))

    def test_same_step_module_share_rejected(self, diamond_dfg):
        steps = {"N1": 0, "N2": 0, "N3": 1}
        binding = default_binding(diamond_dfg).merge_modules("M_N1", "M_N2")
        with pytest.raises(BindingError):
            validate_binding(diamond_dfg, steps, binding)

    def test_different_step_module_share_ok(self, diamond_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = default_binding(diamond_dfg).merge_modules("M_N1", "M_N2")
        validate_binding(diamond_dfg, steps, binding)

    def test_mixed_class_module_rejected(self, chain_dfg):
        # N1 is a mult, N2 an add: incompatible on one module.
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = default_binding(chain_dfg).merge_modules("M_N1", "M_N2")
        with pytest.raises(BindingError):
            validate_binding(chain_dfg, steps, binding)

    def test_overlapping_register_share_rejected(self, diamond_dfg):
        steps = {"N1": 0, "N2": 0, "N3": 1}
        # x and y both live during step 1.
        binding = default_binding(diamond_dfg).merge_registers("R_x", "R_y")
        with pytest.raises(BindingError):
            validate_binding(diamond_dfg, steps, binding)

    def test_disjoint_register_share_ok(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        # a dies at step 0, y is born at step 1: disjoint.
        binding = default_binding(chain_dfg).merge_registers("R_a", "R_y")
        validate_binding(chain_dfg, steps, binding)

    def test_unbound_op_rejected(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = default_binding(chain_dfg)
        del binding.module_of["N2"]
        with pytest.raises(BindingError):
            validate_binding(chain_dfg, steps, binding)

    def test_unbound_variable_rejected(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = default_binding(chain_dfg)
        del binding.register_of["x"]
        with pytest.raises(BindingError):
            validate_binding(chain_dfg, steps, binding)

    def test_module_unit_class(self, diamond_dfg):
        binding = default_binding(diamond_dfg)
        assert module_unit_class(diamond_dfg, binding,
                                 "M_N1") == UnitClass.MULTIPLIER
        assert module_unit_class(diamond_dfg, binding,
                                 "M_N3") == UnitClass.ALU

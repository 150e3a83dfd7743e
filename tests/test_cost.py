"""Unit tests for the module library, floorplanner and cost estimators."""

import pytest

from repro.alloc import default_binding
from repro.cost import CostModel, DEFAULT_LIBRARY, floorplan
from repro.cost.floorplan import Slot, _ring_slots
from repro.dfg import UnitClass
from repro.etpn import DataPath, default_design


class TestLibrary:
    def test_multiplier_grows_quadratically(self):
        lib = DEFAULT_LIBRARY
        a4 = lib.unit_area(UnitClass.MULTIPLIER, 4)
        a8 = lib.unit_area(UnitClass.MULTIPLIER, 8)
        a16 = lib.unit_area(UnitClass.MULTIPLIER, 16)
        assert a8 / a4 > 2.0          # super-linear
        assert a16 / a8 > 2.0

    def test_alu_grows_linearly(self):
        lib = DEFAULT_LIBRARY
        a4 = lib.unit_area(UnitClass.ALU, 4)
        a8 = lib.unit_area(UnitClass.ALU, 8)
        assert a8 == pytest.approx(2 * a4 - lib.units[UnitClass.ALU].fixed)

    def test_mux_area_zero_below_two_inputs(self):
        lib = DEFAULT_LIBRARY
        assert lib.mux_area(1, 8) == 0.0
        assert lib.mux_area(0, 8) == 0.0
        assert lib.mux_area(3, 8) > lib.mux_area(2, 8) > 0.0

    def test_multiplier_bigger_than_alu(self):
        lib = DEFAULT_LIBRARY
        for bits in (4, 8, 16):
            assert (lib.unit_area(UnitClass.MULTIPLIER, bits)
                    > lib.unit_area(UnitClass.ALU, bits))


class TestSpiral:
    def test_starts_at_origin(self):
        slots = [(x, y) for x, y, _ in _ring_slots(9)]
        assert slots[0] == (0, 0)

    def test_unique_slots(self):
        slots = [(x, y) for x, y, _ in _ring_slots(60)]
        assert len(slots) == 60
        assert len(set(slots)) == 60

    def test_manhattan_distance(self):
        assert Slot(0, 0).distance(Slot(3, 4)) == 7


class TestFloorplan:
    def test_every_node_placed(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        plan = floorplan(dp, DEFAULT_LIBRARY.slot_pitch_mm)
        assert set(plan.positions) == set(dp.nodes)

    def test_positions_unique(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        plan = floorplan(dp, DEFAULT_LIBRARY.slot_pitch_mm)
        slots = list(plan.positions.values())
        assert len(set(slots)) == len(slots)

    def test_deterministic(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        p1 = floorplan(dp, 0.1)
        p2 = floorplan(dp, 0.1)
        assert p1.positions == p2.positions

    def test_connected_nodes_near(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        plan = floorplan(dp, 0.1)
        # A register and the module it feeds should be close by
        # construction (within a few slots).
        d = plan.positions["R_a"].distance(plan.positions["M_N1"])
        assert d <= 4


class TestCostModel:
    def test_hardware_itemisation(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        cost = CostModel(bits=8).hardware(dp)
        assert cost.units_mm2 > 0
        assert cost.registers_mm2 > 0
        assert cost.wiring_mm2 > 0
        assert cost.muxes_mm2 == 0.0  # default binding has no muxes
        assert cost.total_mm2 == pytest.approx(
            cost.units_mm2 + cost.registers_mm2 + cost.muxes_mm2
            + cost.wiring_mm2)

    def test_wider_datapath_costs_more(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        assert (CostModel(bits=16).hardware_total(dp)
                > CostModel(bits=8).hardware_total(dp)
                > CostModel(bits=4).hardware_total(dp))

    def test_register_merge_reduces_register_area(self, chain_dfg):
        model = CostModel(bits=8)
        base = default_design(chain_dfg).datapath
        merged = DataPath(chain_dfg,
                          default_binding(chain_dfg).merge_registers("R_a", "R_y"))
        assert (model.hardware(merged).registers_mm2
                < model.hardware(base).registers_mm2)

    def test_delta(self, chain_dfg):
        model = CostModel(bits=8)
        design = default_design(chain_dfg)
        merged = design.replaced(
            binding=design.binding.merge_registers("R_a", "R_y"))
        delta_e, delta_h = model.delta(design, merged)
        assert delta_e == 0.0           # schedule unchanged
        assert delta_h < 0.0            # one register saved

    def test_hardware_total_is_kept_per_width_and_library(self, chain_dfg):
        from dataclasses import replace
        dp = default_design(chain_dfg).datapath
        fresh = {bits: CostModel(bits=bits).hardware(
            DataPath(chain_dfg, dp.binding)).total_mm2 for bits in (4, 8)}
        assert CostModel(bits=4).hardware_total(dp) == fresh[4]
        assert CostModel(bits=8).hardware_total(dp) == fresh[8]
        assert CostModel(bits=4).hardware_total(dp) == fresh[4]
        costly = replace(DEFAULT_LIBRARY, wire_pitch_mm=1.0)
        assert (CostModel(bits=4, library=costly).hardware_total(dp)
                == CostModel(bits=4, library=costly).hardware(dp).total_mm2
                > fresh[4])

    def test_execution_cost(self, chain_dfg):
        assert default_design(chain_dfg).execution_time == 3

    def test_area_calibration_magnitude(self, chain_dfg):
        # A small design at 8 bits should land well under 1 mm² —
        # same order of magnitude as the paper's tables.
        total = CostModel(bits=8).hardware_total(
            default_design(chain_dfg).datapath)
        assert 0.01 < total < 1.0

"""Unit tests for the Petri net structure and the control-net builders."""

import pytest

from repro.dfg import DFGBuilder
from repro.errors import PetriNetError
from repro.petri import (Guard, PetriNet, control_net_for_design,
                         control_net_from_schedule)


class TestStructure:
    def test_duplicate_place(self):
        net = PetriNet("n")
        net.add_place("P0")
        with pytest.raises(PetriNetError):
            net.add_place("P0")

    def test_negative_delay(self):
        net = PetriNet("n")
        with pytest.raises(PetriNetError):
            net.add_place("P0", delay=-1)

    def test_transition_unknown_place(self):
        net = PetriNet("n")
        net.add_place("P0")
        with pytest.raises(PetriNetError):
            net.add_transition("t0", ["P0"], ["P9"])

    def test_transition_needs_inputs(self):
        net = PetriNet("n")
        net.add_place("P0")
        with pytest.raises(PetriNetError):
            net.add_transition("t0", [], ["P0"])

    def test_initial_unknown_place(self):
        net = PetriNet("n")
        net.add_place("P0")
        with pytest.raises(PetriNetError):
            net.set_initial("P9")

    def test_validate_requires_initial(self):
        net = PetriNet("n")
        net.add_place("P0")
        with pytest.raises(PetriNetError):
            net.validate()


class TestGuard:
    def test_guard_complement(self):
        g = Guard("c")
        assert g.complement() == Guard("c", negated=True)
        assert g.complement().complement() == g


class TestBuilders:
    def test_zero_steps_rejected(self):
        with pytest.raises(PetriNetError):
            control_net_from_schedule("bad", 0)

    def test_empty_schedule_rejected(self, chain_dfg):
        with pytest.raises(PetriNetError, match="at least one step"):
            control_net_for_design(chain_dfg, {})

    def test_control_net_for_design(self):
        b = DFGBuilder("d")
        b.inputs("a", "b")
        b.op("N1", "+", "x", "a", "b")
        b.op("N2", "*", "y", "x", "b")
        dfg = b.build()
        net = control_net_for_design(dfg, {"N1": 0, "N2": 1})
        assert net.places["S0"].label == "N1"
        assert net.places["S1"].label == "N2"

    def test_control_net_for_loop_design(self, loop_dfg):
        net = control_net_for_design(loop_dfg, {"N1": 0, "N2": 1})
        assert "t_loop" in net.transitions
        assert net.transitions["t_loop"].guard == Guard("c")
        assert net.transitions["t_exit"].guard == Guard("c", negated=True)

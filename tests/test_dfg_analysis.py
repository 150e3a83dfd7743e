"""Unit tests for schedule-independent DFG analyses."""

import pytest

from repro.dfg.analysis import (asap_steps, critical_path_length,
                                topological_order)
from repro.errors import ScheduleError
from repro.sched import frames


class TestTopologicalOrder:
    def test_chain(self, chain_dfg):
        assert topological_order(chain_dfg) == ["N1", "N2", "N3"]

    def test_diamond_respects_dependences(self, diamond_dfg):
        order = topological_order(diamond_dfg)
        assert order.index("N1") < order.index("N3")
        assert order.index("N2") < order.index("N3")

    def test_deterministic(self, diamond_dfg):
        assert topological_order(diamond_dfg) == topological_order(diamond_dfg)


class TestAsapAlap:
    def test_chain_asap(self, chain_dfg):
        assert asap_steps(chain_dfg) == {"N1": 0, "N2": 1, "N3": 2}

    def test_diamond_asap(self, diamond_dfg):
        asap = asap_steps(diamond_dfg)
        assert asap["N1"] == 0 and asap["N2"] == 0 and asap["N3"] == 1

    # The ALAP bound is the latest step of each op's frame.
    def test_chain_alap_equals_asap(self, chain_dfg):
        frame = frames(chain_dfg, critical_path_length(chain_dfg))
        assert {o: hi for o, (_, hi) in frame.items()} == asap_steps(chain_dfg)

    def test_alap_with_extended_horizon(self, chain_dfg):
        frame = frames(chain_dfg, 5)
        assert {o: hi for o, (_, hi) in frame.items()} == \
            {"N1": 2, "N2": 3, "N3": 4}

    def test_alap_infeasible_horizon(self, chain_dfg):
        with pytest.raises(ScheduleError):
            frames(chain_dfg, 2)

    def test_multidef_serialised(self, multidef_dfg):
        asap = asap_steps(multidef_dfg)
        assert asap["N2"] == asap["N1"] + 1


class TestCriticalPath:
    def test_chain_length(self, chain_dfg):
        assert critical_path_length(chain_dfg) == 3

    def test_diamond_length(self, diamond_dfg):
        assert critical_path_length(diamond_dfg) == 2

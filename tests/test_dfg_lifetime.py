"""Unit tests for variable lifetime analysis."""

import pytest

from repro.dfg import variable_lifetimes
from repro.dfg.lifetime import Lifetime, max_overlap
from repro.errors import ScheduleError


class TestLifetimeIntervals:
    def test_chain_lifetimes(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        lts = variable_lifetimes(chain_dfg, steps)
        # Inputs are loaded the step before first use.
        assert lts["a"] == Lifetime("a", -1, 0)
        assert lts["c"] == Lifetime("c", 0, 1)
        # x is born at N1's step, dies at its last use.
        assert lts["x"] == Lifetime("x", 0, 1)
        # z is an output: survives one step past its definition.
        assert lts["z"] == Lifetime("z", 2, 3)

    def test_condition_has_no_lifetime(self, loop_dfg):
        steps = {"N1": 0, "N2": 1}
        lts = variable_lifetimes(loop_dfg, steps)
        assert "c" not in lts

    def test_multidef_merged_interval(self, multidef_dfg):
        steps = {"N1": 0, "N2": 1}
        lts = variable_lifetimes(multidef_dfg, steps)
        # u1 born at N1 (step 0), redefined at N2 (step 1), output -> dies 2.
        assert lts["u1"] == Lifetime("u1", 0, 2)

    def test_incomplete_schedule_rejected(self, chain_dfg):
        with pytest.raises(ScheduleError):
            variable_lifetimes(chain_dfg, {"N1": 0})


class TestOverlap:
    def test_touching_intervals_disjoint(self):
        a = Lifetime("a", 0, 1)
        b = Lifetime("b", 1, 2)
        assert not a.overlaps(b)
        assert not b.overlaps(a)

    def test_nested_intervals_overlap(self):
        a = Lifetime("a", 0, 5)
        b = Lifetime("b", 1, 2)
        assert a.overlaps(b)

    def test_span(self):
        assert Lifetime("a", 0, 3).span == 3
        assert Lifetime("a", 2, 2).span == 0


class TestConflictGraph:
    def test_chain_conflicts(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        lts = variable_lifetimes(chain_dfg, steps)
        # a and b both live into step 0: conflict.
        assert lts["a"].overlaps(lts["b"])
        # a dies at step 0; z born at step 2: no conflict.
        assert not lts["a"].overlaps(lts["z"])

    def test_disjoint_group(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        lts = variable_lifetimes(chain_dfg, steps)
        assert not lts["a"].overlaps(lts["y"])     # a:( -1,0], y:(1,2]
        assert lts["a"].overlaps(lts["b"])

    def test_max_overlap(self, diamond_dfg):
        steps = {"N1": 0, "N2": 0, "N3": 1}
        lts = variable_lifetimes(diamond_dfg, steps)
        # a, b, c, d all live during step 0.
        assert max_overlap(lts) >= 4

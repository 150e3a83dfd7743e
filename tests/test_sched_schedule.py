"""Unit tests for schedule helpers and constraint checking."""

import pytest

from repro.errors import ScheduleError
from repro.sched import (check_precedence, compact, ops_by_step,
                         precedence_violations, schedule_length)


class TestHelpers:
    def test_length(self):
        assert schedule_length({"a": 0, "b": 2}) == 3
        assert schedule_length({}) == 0

    def test_length_with_delays(self):
        assert schedule_length({"a": 0, "b": 1}, {"b": 3}) == 4

    def test_ops_by_step(self):
        grouped = ops_by_step({"b": 1, "a": 0, "c": 1})
        assert grouped == {0: ["a"], 1: ["b", "c"]}

    def test_compact_removes_gaps(self):
        assert compact({"a": 0, "b": 3, "c": 7}) == {"a": 0, "b": 1, "c": 2}

    def test_compact_preserves_sharing(self):
        compacted = compact({"a": 2, "b": 2, "c": 5})
        assert compacted["a"] == compacted["b"] == 0
        assert compacted["c"] == 1


class TestPrecedence:
    def test_valid_schedule(self, chain_dfg):
        check_precedence(chain_dfg, {"N1": 0, "N2": 1, "N3": 2})

    def test_flow_violation(self, chain_dfg):
        violations = precedence_violations(chain_dfg,
                                           {"N1": 0, "N2": 0, "N3": 1})
        assert any(v.edge.src == "N1" and v.edge.dst == "N2"
                   for v in violations)

    def test_check_raises(self, chain_dfg):
        with pytest.raises(ScheduleError):
            check_precedence(chain_dfg, {"N1": 2, "N2": 1, "N3": 0})

    def test_incomplete_schedule(self, chain_dfg):
        with pytest.raises(ScheduleError):
            check_precedence(chain_dfg, {"N1": 0})

    def test_negative_step(self, chain_dfg):
        with pytest.raises(ScheduleError):
            check_precedence(chain_dfg, {"N1": -1, "N2": 0, "N3": 1})

    def test_anti_dependence_same_step_ok(self):
        from repro.dfg import DFGBuilder
        b = DFGBuilder("anti")
        b.inputs("a", "b")
        b.op("N1", "+", "t", "a", "b")
        b.op("N2", "+", "s", "t", "a")
        b.op("N3", "-", "t", "a", "b")
        dfg = b.build()
        # N3 redefines t in the same step N2 reads it: legal.
        check_precedence(dfg, {"N1": 0, "N2": 1, "N3": 1})

    def test_multidef_output_dependence(self, multidef_dfg):
        with pytest.raises(ScheduleError):
            check_precedence(multidef_dfg, {"N1": 0, "N2": 0})

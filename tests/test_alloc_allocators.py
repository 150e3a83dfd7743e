"""Unit tests for left-edge, modified left-edge and module binders."""


from repro.alloc import (connectivity_module_binding, left_edge,
                         min_module_binding)
from repro.alloc import testability_left_edge as modified_left_edge
from repro.dfg import DFGBuilder, variable_lifetimes
from repro.dfg.lifetime import Lifetime


def lts(*triples):
    return {name: Lifetime(name, birth, death)
            for name, birth, death in triples}


class TestLeftEdge:
    def test_disjoint_share(self):
        result = left_edge(lts(("a", 0, 1), ("b", 1, 2)))
        assert result["a"] == result["b"]

    def test_overlapping_split(self):
        result = left_edge(lts(("a", 0, 2), ("b", 1, 3)))
        assert result["a"] != result["b"]

    def test_minimum_registers(self):
        # Three pairwise-overlapping at peak -> 3 registers; staircase
        # reuse afterwards.
        result = left_edge(lts(("a", 0, 2), ("b", 0, 3), ("c", 0, 4),
                               ("d", 2, 5), ("e", 3, 6)))
        assert len(set(result.values())) == 3

    def test_empty(self):
        assert left_edge({}) == {}

    def test_deterministic(self):
        intervals = lts(("a", 0, 2), ("b", 0, 3), ("c", 2, 4))
        assert left_edge(intervals) == left_edge(intervals)


class TestTestabilityLeftEdge:
    def test_same_register_count_as_plain(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        lifetimes = variable_lifetimes(chain_dfg, steps)
        plain = left_edge(lifetimes)
        modified = modified_left_edge(chain_dfg, lifetimes)
        assert len(set(modified.values())) == len(set(plain.values()))

    def test_mixes_input_and_later_variables(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        lifetimes = variable_lifetimes(chain_dfg, steps)
        modified = modified_left_edge(chain_dfg, lifetimes)
        # Some input variable must share with a non-input (the groups
        # mix sides by construction: inputs die early, values born late).
        groups = {}
        for var, reg in modified.items():
            groups.setdefault(reg, []).append(var)
        mixed = any(
            any(chain_dfg.variable(v).is_input for v in group)
            and any(not chain_dfg.variable(v).is_input for v in group)
            for group in groups.values() if len(group) > 1)
        assert mixed


class TestModuleBinding:
    def test_min_binding_separates_same_step(self, diamond_dfg):
        steps = {"N1": 0, "N2": 0, "N3": 1}
        binding = min_module_binding(diamond_dfg, steps)
        assert binding["N1"] != binding["N2"]

    def test_min_binding_shares_across_steps(self, diamond_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = min_module_binding(diamond_dfg, steps)
        assert binding["N1"] == binding["N2"]

    def test_classes_never_mix(self, chain_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = min_module_binding(chain_dfg, steps)
        assert binding["N1"].startswith("MUL")
        assert binding["N2"].startswith("ALU")
        assert binding["N2"] == binding["N3"]

    def test_connectivity_prefers_shared_variables(self):
        b = DFGBuilder("share")
        b.inputs("a", "b", "c", "d")
        b.op("N1", "+", "x", "a", "b")   # step 0
        b.op("N2", "+", "y", "c", "d")   # step 0 (forces 2 ALUs)
        b.op("N3", "+", "z", "x", "b")   # step 1, shares a/b with N1
        dfg = b.build()
        steps = {"N1": 0, "N2": 0, "N3": 1}
        binding = connectivity_module_binding(dfg, steps)
        assert binding["N3"] == binding["N1"]

    def test_connectivity_same_unit_count(self, diamond_dfg):
        steps = {"N1": 0, "N2": 0, "N3": 1}
        a = min_module_binding(diamond_dfg, steps)
        b = connectivity_module_binding(diamond_dfg, steps)
        assert len(set(a.values())) == len(set(b.values()))

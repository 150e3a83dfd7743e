"""Unit tests for the balance principle and sequential depth (SR1)."""

import pytest

from repro.alloc import default_binding
from repro.etpn import DataPath, default_design
from repro.testability import (analyze, balance_score, merged_testability,
                               register_depths, sequential_depth_metric)
from repro.testability.metrics import NodeTestability


def node(nid, cc, sc, co, so):
    return NodeTestability(nid, cc=cc, sc=sc, co=co, so=so)


class TestBalanceScore:
    def test_merged_inherits_best_of_each(self):
        a = node("a", cc=1.0, sc=0.0, co=0.1, so=5.0)   # C-dominant
        b = node("b", cc=0.1, sc=5.0, co=1.0, so=0.0)   # O-dominant
        merged_c, merged_o = merged_testability(a, b)
        assert merged_c == a.c_score
        assert merged_o == b.o_score

    def test_opposite_imbalance_preferred(self):
        c_node = node("c", 1.0, 0.0, 0.1, 5.0)
        o_node = node("o", 0.1, 5.0, 1.0, 0.0)
        c_node2 = node("c2", 0.9, 0.0, 0.1, 5.0)
        good = balance_score(c_node, o_node)
        bad = balance_score(c_node, c_node2)
        assert good.key() > bad.key()

    def test_rank_pairs_orders_by_balance(self, chain_dfg):
        nodes = analyze(default_design(chain_dfg).datapath).all_nodes()
        # R_a (near input) with R_z (near output) should rank above
        # R_a with R_x (both nearer the input side).
        assert (balance_score(nodes["R_a"], nodes["R_z"]).key()
                > balance_score(nodes["R_a"], nodes["R_x"]).key())


class TestSequentialDepth:
    def test_chain_depths(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        depths = register_depths(dp)
        # Input registers sit at depth_in 1 (one clocked stage from PI).
        assert depths["R_a"].depth_in == 1.0
        # Depth is a shortest *path*: R_z is two stages from PI_d via
        # R_d -> M_N3 -> R_z (the side operand provides the short route).
        assert depths["R_z"].depth_in == 2.0
        # ...but directly observable at PO_z.
        assert depths["R_z"].depth_out == 0.0

    def test_depth_out_counts_stages(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        depths = register_depths(dp)
        # R_a must traverse x, y, z registers to reach the output.
        assert depths["R_a"].depth_out == 3.0

    def test_metric_totals(self, chain_dfg):
        dp = default_design(chain_dfg).datapath
        assert sequential_depth_metric(dp) == pytest.approx(
            sum(d.total for d in register_depths(dp).values()))
        assert max(d.total for d in register_depths(dp).values()) >= 4.0

    def test_register_merge_reduces_depth(self, chain_dfg):
        """Merging an input-side and output-side register shortens SR1
        depth, the effect Figure 1 of the paper illustrates."""
        base = default_design(chain_dfg).datapath
        merged_binding = default_binding(chain_dfg).merge_registers("R_a", "R_y")
        merged = DataPath(chain_dfg, merged_binding)
        assert sequential_depth_metric(merged) < sequential_depth_metric(base)

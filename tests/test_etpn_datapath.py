"""Unit tests for the ETPN data-path graph."""


from repro.alloc import default_binding
from repro.dfg import DFGBuilder
from repro.etpn import DataPath, NodeKind, default_design


class TestConstruction:
    def test_node_kinds(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        kinds = {n.node_id: n.kind for n in dp.nodes.values()}
        assert kinds["PI_a"] == NodeKind.PORT_IN
        assert kinds["PO_z"] == NodeKind.PORT_OUT
        assert kinds["M_N1"] == NodeKind.MODULE
        assert kinds["R_x"] == NodeKind.REGISTER

    def test_port_to_register_arcs(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        assert any(a.src == "PI_a" and a.dst == "R_a" for a in dp.arcs)

    def test_register_to_module_arcs(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        assert any(a.src == "R_a" and a.dst == "M_N1" and a.port == 0
                   for a in dp.arcs)
        assert any(a.src == "R_b" and a.dst == "M_N1" and a.port == 1
                   for a in dp.arcs)

    def test_module_to_register_arc(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        assert any(a.src == "M_N1" and a.dst == "R_x" for a in dp.arcs)

    def test_output_port_arc(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        assert any(a.src == "R_z" and a.dst == "PO_z" for a in dp.arcs)

    def test_const_node(self):
        b = DFGBuilder("c")
        b.inputs("x")
        b.op("N1", "*", "y", 3, "x")
        dfg = b.build()
        dp = DataPath(dfg, default_binding(dfg))
        assert dp.nodes["C_3"].kind == NodeKind.CONST
        assert any(a.src == "C_3" and a.dst == "M_N1" for a in dp.arcs)

    def test_condition_node(self, loop_dfg):
        dp = DataPath(loop_dfg, default_binding(loop_dfg))
        assert dp.nodes["COND_c"].kind == NodeKind.COND
        cond_arcs = [a for a in dp.arcs if a.dst == "COND_c"]
        assert cond_arcs and cond_arcs[0].is_condition


class TestMuxCounting:
    def test_no_mux_without_sharing(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        assert dp.mux_count() == 0

    def test_module_sharing_creates_mux(self, diamond_dfg):
        steps = {"N1": 0, "N2": 1, "N3": 2}
        binding = default_binding(diamond_dfg).merge_modules("M_N1", "M_N2")
        dp = DataPath(diamond_dfg, binding)
        # Merged multiplier reads a/c on port 0 and b/d on port 1.
        assert dp.sources_of_port("M_N1", 0) == ["R_a", "R_c"]
        assert dp.mux_count() == 2

    def test_register_sharing_creates_mux(self, chain_dfg):
        # x (from N1) and z (from N3) in one register -> mux at its input.
        binding = default_binding(chain_dfg).merge_registers("R_x", "R_z")
        dp = DataPath(chain_dfg, binding)
        assert dp.mux_count() == 1


class TestLoops:
    def test_self_loop_detection(self, multidef_dfg):
        # u1 = u - e; u1 = u1 - f with both subs on one module and u1 in
        # one register: module reads R_u1 and writes R_u1 -> self-loop.
        binding = default_binding(multidef_dfg).merge_modules("M_N1", "M_N2")
        dp = DataPath(multidef_dfg, binding)
        assert ("M_N1", "R_u1") in dp.self_loops()

    def test_no_self_loop_in_chain(self, chain_dfg):
        dp = DataPath(chain_dfg, default_binding(chain_dfg))
        assert dp.self_loops() == []


class TestDesign:
    def test_default_design_summary(self, chain_dfg):
        design = default_design(chain_dfg)
        s = design.summary()
        assert s["steps"] == 3
        assert s["modules"] == 3
        assert s["registers"] == 7
        assert s["muxes"] == 0

    def test_execution_time_matches_steps(self, chain_dfg):
        design = default_design(chain_dfg)
        assert design.execution_time == design.num_steps

    def test_replaced_shares_dfg(self, chain_dfg):
        design = default_design(chain_dfg)
        other = design.replaced(label="x")
        assert other.dfg is design.dfg
        assert other.label == "x"
        assert design.label == "default"

    def test_loop_design(self, loop_dfg):
        design = default_design(loop_dfg)
        design.validate()

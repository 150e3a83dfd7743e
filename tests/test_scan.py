"""Unit and integration tests for the scan extension."""

import pytest

from repro.atpg import ATPGConfig, Fault, RandomPhaseConfig
from repro.atpg.podem import PodemEngine
from repro.bench import load
from repro.errors import NetlistError
from repro.gates import CompiledCircuit, expand_to_gates, GateNetlist
from repro.gates.simulate import FULL
from repro.rtl import generate_rtl
from repro.runtime import Budget
from repro.scan import (ScanTestCost, chain_bits_for_registers,
                        evaluate_scan, insert_scan_chain,
                        register_dependency_graph, scan_load_sequence,
                        select_by_depth, select_full, select_loop_breaking,
                        unroll_full_scan)
from repro.synth import run_ours


@pytest.fixture()
def ex_design():
    return run_ours(load("ex")).design


@pytest.fixture()
def ex_netlist(ex_design):
    return expand_to_gates(generate_rtl(ex_design, 4))


class TestSelection:
    def test_dependency_graph_edges(self, ex_design):
        graph = register_dependency_graph(ex_design.datapath)
        assert set(graph) == {r.node_id
                              for r in ex_design.datapath.registers()}
        assert any(graph.values())     # some register feeds another

    def test_loop_breaking_breaks_all_cycles(self, ex_design):
        from repro.scan.selection import _has_cycle
        dp = ex_design.datapath
        selected = select_loop_breaking(dp)
        graph = register_dependency_graph(dp)
        assert _has_cycle(graph, set(selected)) == []

    def test_loop_breaking_minimal_ish(self, ex_design):
        selected = select_loop_breaking(ex_design.datapath)
        registers = len(ex_design.datapath.registers())
        assert 0 < len(selected) < registers

    def test_depth_selection_budget(self, ex_design):
        assert len(select_by_depth(ex_design.datapath, 2)) == 2
        assert select_by_depth(ex_design.datapath, 0) == []

    def test_depth_selection_picks_deepest(self, ex_design):
        from repro.testability import register_depths
        depths = register_depths(ex_design.datapath)
        chosen = select_by_depth(ex_design.datapath, 1)[0]
        assert depths[chosen].total == max(d.total for d in depths.values())

    def test_full_selection(self, ex_design):
        assert (len(select_full(ex_design.datapath))
                == ex_design.datapath.registers().__len__())


class TestChainInsertion:
    def test_chain_length(self, ex_netlist, ex_design):
        registers = select_full(ex_design.datapath)
        chain = insert_scan_chain(ex_netlist, registers)
        assert chain.length == 4 * len(registers)
        assert "scan_enable" in ex_netlist.inputs
        assert "scan_out" in ex_netlist.outputs

    def test_double_insertion_rejected(self, ex_netlist, ex_design):
        registers = select_full(ex_design.datapath)
        insert_scan_chain(ex_netlist, registers)
        with pytest.raises(NetlistError):
            insert_scan_chain(ex_netlist, registers)

    def test_empty_selection_rejected(self, ex_netlist):
        with pytest.raises(NetlistError):
            insert_scan_chain(ex_netlist, [])

    def test_unknown_register_rejected(self, ex_netlist):
        with pytest.raises(NetlistError):
            chain_bits_for_registers(ex_netlist, ["R_nothere"])

    def test_shift_behaviour(self):
        """Values shifted in land in chain order; functional mode holds."""
        net = GateNetlist("two_flops")
        q0 = net.add_dff("r[0]")
        q1 = net.add_dff("s[0]")
        a = net.add_input("a")
        net.connect_dff(q0, a)
        net.connect_dff(q1, q0)
        net.set_output("o", q1)
        chain = insert_scan_chain(net, ["r", "s"])
        circuit = CompiledCircuit(net)
        vectors = scan_load_sequence(circuit.input_names, chain, [1, 0],
                                     fill={"a": 0})
        broadcast = [{k: (FULL if v else 0) for k, v in cyc.items()}
                     for cyc in vectors]
        _, state = circuit.run(broadcast)
        dff_index = {circuit.netlist.gates[g].name: i
                     for i, g in enumerate(circuit.dff_gids)}
        assert state[dff_index["r[0]"]] == FULL   # wanted 1
        assert state[dff_index["s[0]"]] == 0      # wanted 0


class TestFullScanModel:
    def test_pseudo_pis_and_pos(self, ex_netlist, ex_design):
        registers = select_full(ex_design.datapath)
        insert_scan_chain(ex_netlist, registers)
        model = unroll_full_scan(ex_netlist)
        names = {name for _, name in model.pi_names.values()}
        assert any(name.startswith("ppi:") for name in names)
        po_names = {name for _, name in model.po_names.values()}
        assert any(name.startswith("ppo:") for name in po_names)
        # scan controls are constants, not PIs.
        assert "scan_enable" not in names

    def test_podem_on_full_scan_model(self, ex_netlist, ex_design):
        registers = select_full(ex_design.datapath)
        insert_scan_chain(ex_netlist, registers)
        model = unroll_full_scan(ex_netlist)
        engine = PodemEngine(model, max_backtracks=32)
        # A register-output fault is now directly loadable/observable.
        dff = ex_netlist.dffs()[0]
        outcome = engine.generate(Fault(dff.gid, 0))
        assert outcome.success or not outcome.aborted

    def test_scan_test_cost(self):
        assert ScanTestCost(tests=0, chain_length=10).cycles == 0
        assert ScanTestCost(tests=3, chain_length=10).cycles == 4 * 10 + 3


class TestEvaluate:
    def test_full_scan_improves_coverage(self, ex_design):
        """Full scan reaches at least the no-scan coverage (usually far
        more) at the cost of extra cycles."""
        from repro.atpg import run_atpg
        netlist = expand_to_gates(generate_rtl(ex_design, 4))
        config = ATPGConfig(
            random=RandomPhaseConfig(max_sequences=6, saturation=2,
                                     sequence_length=16),
            max_frames=6, max_backtracks=24)
        baseline = run_atpg(netlist, config)
        scan = evaluate_scan(netlist, select_full(ex_design.datapath),
                             config)
        assert scan.fault_coverage >= baseline.fault_coverage - 2.0
        assert scan.chain_length > 0
        assert scan.overhead_mm2 > 0

    def test_partial_scan_cheaper_than_full(self, ex_design):
        netlist = expand_to_gates(generate_rtl(ex_design, 4))
        config = ATPGConfig(
            random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                     sequence_length=12),
            max_backtracks=12)
        partial = evaluate_scan(netlist,
                                select_loop_breaking(ex_design.datapath),
                                config)
        full = evaluate_scan(netlist, select_full(ex_design.datapath),
                             config)
        assert partial.chain_length < full.chain_length
        assert partial.overhead_mm2 < full.overhead_mm2

    def test_wall_seconds_bounds_the_run(self, ex_design):
        netlist = expand_to_gates(generate_rtl(ex_design, 4))
        registers = select_full(ex_design.datapath)
        config = ATPGConfig(
            random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                     sequence_length=12),
            max_backtracks=12)
        # No allowance: the result this configuration has always had.
        unbounded = evaluate_scan(netlist, registers, config)
        assert not unbounded.budget_exhausted
        assert (unbounded.total_faults, unbounded.detected,
                unbounded.test_cycles, unbounded.effort) == (988, 915,
                                                             5654, 220812)
        # Setup alone outlasts a microsecond: no phase gets to run.
        starved = evaluate_scan(netlist, registers, config,
                                budget=Budget(wall_seconds=1e-6))
        assert starved.budget_exhausted
        assert (starved.detected, starved.test_cycles,
                starved.effort) == (0, 0, 0)

"""Integration tests for the combined ATPG engine and the harness."""

import pytest

from repro.atpg import ATPGConfig, RandomPhaseConfig, run_atpg
from repro.atpg import engine as engine_module
from repro.bench import load
from repro.errors import ATPGError
from repro.gates import (GateNetlist, GateType, expand_to_gates,
                         expand_with_controller)
from repro.harness import (ExperimentConfig, render_schedule, render_sharing,
                           render_summary, render_table, run_cell)
from repro.rtl import build_control_table, generate_rtl
from repro.synth import run_ours


@pytest.fixture(scope="module")
def ex_netlist():
    design = run_ours(load("ex")).design
    rtl = generate_rtl(design, 4)
    table = build_control_table(design, rtl)
    return expand_with_controller(rtl, table), design


@pytest.fixture(scope="module")
def quick_config():
    return ATPGConfig(
        random=RandomPhaseConfig(max_sequences=10, saturation=3,
                                 sequence_length=18),
        max_frames=8, max_backtracks=24)


class TestEngine:
    def test_full_run_shape(self, ex_netlist, quick_config):
        netlist, _ = ex_netlist
        result = run_atpg(netlist, quick_config)
        assert result.total_faults > 500
        assert 60.0 < result.fault_coverage <= 100.0
        assert result.test_cycles > 0
        assert result.tg_effort > 0
        assert result.tg_seconds > 0
        assert (result.detected + result.aborted_faults
                + result.untestable_faults <= result.total_faults)

    def test_deterministic_phase_optional(self, ex_netlist):
        netlist, _ = ex_netlist
        config = ATPGConfig(
            random=RandomPhaseConfig(max_sequences=6, saturation=2,
                                     sequence_length=18),
            deterministic=False)
        result = run_atpg(netlist, config)
        assert result.detected_deterministic == 0
        assert result.deterministic_cycles == 0

    def test_fault_sampling_scales_universe(self, ex_netlist, quick_config):
        from dataclasses import replace
        netlist, _ = ex_netlist
        full = run_atpg(netlist, replace(quick_config, deterministic=False))
        sampled = run_atpg(netlist, replace(quick_config,
                                            deterministic=False,
                                            fault_fraction=0.25))
        assert sampled.total_faults < full.total_faults
        assert sampled.total_faults >= full.total_faults // 5

    def test_deterministic_run_repeatable(self, ex_netlist, quick_config):
        netlist, _ = ex_netlist
        a = run_atpg(netlist, quick_config)
        b = run_atpg(netlist, quick_config)
        assert a.fault_coverage == b.fault_coverage
        assert a.test_cycles == b.test_cycles

    def test_free_control_mode_exposes_control_pins(self, quick_config):
        """Free-control expansion exposes every control signal as a PI;
        the embedded-FSM expansion leaves only the data ports."""
        design = run_ours(load("ex")).design
        rtl = generate_rtl(design, 4)
        free_net = expand_to_gates(rtl)
        fsm_net = expand_with_controller(rtl,
                                         build_control_table(design, rtl))
        assert len(free_net.inputs) > len(fsm_net.inputs)
        assert len(fsm_net.inputs) == 4 * len(rtl.in_ports)
        free = run_atpg(free_net, quick_config)
        fsm = run_atpg(fsm_net, quick_config)
        assert free.fault_coverage > 60.0
        assert fsm.fault_coverage > 60.0


class TestConfigValidation:
    @pytest.mark.parametrize("sequences", [0, 4],
                             ids=["random-off", "random-on"])
    @pytest.mark.parametrize("max_frames", [0, -1])
    def test_max_frames_below_one_is_rejected_before_any_phase(
            self, max_frames, sequences, monkeypatch):
        net = GateNetlist("and2")
        gate = net.add(GateType.AND, (net.add_input("a"),
                                      net.add_input("b")))
        net.set_output("o", gate)
        phases = []
        monkeypatch.setattr(engine_module, "random_phase",
                            lambda *args, **kwargs: phases.append(args))
        config = ATPGConfig(max_frames=max_frames,
                            random=RandomPhaseConfig(max_sequences=sequences))
        with pytest.raises(ATPGError,
                           match=rf"^max_frames must be at least 1, "
                                 rf"got {max_frames}$"):
            run_atpg(net, config)
        assert phases == []


class TestHarness:
    @pytest.fixture(scope="class")
    def cell(self):
        config = ExperimentConfig(
            bits=4,
            random=RandomPhaseConfig(max_sequences=8, saturation=3),
            max_backtracks=16)
        return run_cell("ex", "ours", config)

    def test_cell_row_fields(self, cell):
        row = cell.row()
        assert list(row) == [
            "benchmark", "flow", "bits", "steps", "modules", "registers",
            "muxes", "coverage_pct", "tg_effort_k", "tg_seconds",
            "test_cycles", "area_mm2", "seq_depth", "degraded", "narrowed"]
        assert row["narrowed"] is False
        assert row["benchmark"] == "ex"
        assert row["flow"] == "ours"
        assert row["bits"] == 4
        assert row["coverage_pct"] > 60
        assert row["area_mm2"] > 0

    def test_render_table(self, cell):
        text = render_table("ex", [cell])
        assert "Ours" in text
        assert "%" in text
        assert "(*)" in text or "(+" in text

    def test_render_summary(self, cell):
        text = render_summary([cell])
        assert "ex" in text and "ours" in text

    def test_render_schedule(self, cell):
        text = render_schedule(cell.design)
        assert "step 0" in text
        assert "N21" in text

    def test_render_sharing(self, cell):
        text = render_sharing(cell.design)
        assert "share" in text

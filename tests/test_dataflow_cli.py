"""Tests for the ``dataflow`` CLI command."""

from __future__ import annotations

import json

from repro.cli import main


class TestDataflowCommand:
    def test_single_benchmark_text(self, capsys):
        assert main(["dataflow", "diffeq", "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "diffeq@8b" in out
        assert "check 64 vectors: ok" in out

    def test_multiple_widths(self, capsys):
        assert main(["dataflow", "ex", "--bits", "4", "8", "16"]) == 0
        out = capsys.readouterr().out
        assert "ex@4b" in out and "ex@8b" in out and "ex@16b" in out

    def test_json_format(self, capsys):
        assert main(["dataflow", "tseng", "--bits", "8",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        (cell,) = data["targets"]
        assert cell["name"] == "tseng" and cell["bits"] == 8
        for key in ("constant_ops", "known_bits", "max_required_width",
                    "loop_iterations", "widened", "check_problems"):
            assert key in cell
        assert cell["check_problems"] == []
        assert cell["narrowing"] is None

    def test_narrow_reports_delta(self, capsys):
        assert main(["dataflow", "tseng", "--bits", "16", "--narrow",
                     "--input-bits", "8", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        narrowing = data["targets"][0]["narrowing"]
        assert narrowing["applied"] is True
        assert narrowing["area_delta_mm2"] > 0

    def test_narrow_default_flow(self, capsys):
        assert main(["dataflow", "ex", "--bits", "8", "--narrow",
                     "--flow", "default"]) == 0
        assert "narrowing:" in capsys.readouterr().out

    def test_input_bits_tighten_widths(self, capsys):
        main(["dataflow", "fir8", "--bits", "16", "--format", "json"])
        wide = json.loads(capsys.readouterr().out)["targets"][0]
        main(["dataflow", "fir8", "--bits", "16", "--input-bits", "4",
              "--format", "json"])
        tight = json.loads(capsys.readouterr().out)["targets"][0]
        assert tight["max_required_width"] < wide["max_required_width"]

    def test_all_benchmarks_default(self, capsys):
        assert main(["dataflow", "--bits", "8", "--vectors", "16"]) == 0
        out = capsys.readouterr().out
        assert out.count("==") == 9  # one header per benchmark

    def test_unknown_target_exits_2(self, capsys):
        assert main(["dataflow", "nothere"]) == 2
        assert "neither a registered benchmark" in capsys.readouterr().err

    def test_verbose_prints_var_facts(self, capsys):
        assert main(["dataflow", "ex", "--bits", "8", "-v"]) == 0
        out = capsys.readouterr().out
        assert ":" in out and "==" in out

    def test_hdl_file_target(self, tmp_path, capsys):
        src = tmp_path / "tiny.hdl"
        src.write_text("design tiny; input a, b; output o;"
                       "begin o := a + b; end")
        assert main(["dataflow", str(src), "--bits", "8"]) == 0
        assert "tiny@8b" in capsys.readouterr().out

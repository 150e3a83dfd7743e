"""Tests for the ``repro-hlts analyze`` subcommand."""

from __future__ import annotations

import json

from repro.cli import main

HDL_SOURCE = """\
design tiny;
input a, b;
output z;
begin
  T1: z := a + b;
end
"""


class TestAnalyzeCli:
    def test_default_flow_text(self, capsys):
        assert main(["analyze", "ex", "--flow", "default"]) == 0
        out = capsys.readouterr().out
        assert "ex: certificate valid [ok]" in out

    def test_all_benchmarks_default_flow(self, capsys):
        assert main(["analyze", "--flow", "default"]) == 0
        out = capsys.readouterr().out
        assert out.count("certificate valid") >= 6

    def test_synthesised_flow(self, capsys):
        assert main(["analyze", "ex", "--flow", "ours"]) == 0
        assert "certificate valid" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["analyze", "ex", "--flow", "default",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True
        target = data["targets"][0]
        assert target["name"] == "ex"
        assert target["verified"] is True
        assert target["certificate"]["valid"] is True

    def test_json_is_byte_stable(self, capsys):
        assert main(["analyze", "ex", "--flow", "default",
                     "--format", "json"]) == 0
        first = capsys.readouterr().out
        assert main(["analyze", "ex", "--flow", "default",
                     "--format", "json"]) == 0
        assert capsys.readouterr().out == first

    def test_verbose_prints_expressions(self, capsys):
        assert main(["analyze", "ex", "--flow", "default", "-v"]) == 0
        assert "output " in capsys.readouterr().out

    def test_unknown_target(self, capsys):
        assert main(["analyze", "no-such-benchmark"]) == 2
        assert "neither" in capsys.readouterr().err

    def test_hdl_file_target(self, tmp_path, capsys):
        source = tmp_path / "tiny.hdl"
        source.write_text(HDL_SOURCE)
        assert main(["analyze", str(source), "--flow", "default"]) == 0
        assert "certificate valid" in capsys.readouterr().out

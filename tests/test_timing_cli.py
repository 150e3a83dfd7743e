"""Tests for ``repro-hlts timing``."""

from __future__ import annotations

import json

from repro.cli import main


class TestTimingCli:
    def test_default_flow_passes(self, capsys):
        assert main(["timing", "ex", "--flow", "default", "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "== ex" in out and "[ok]" in out

    def test_ours_flow_passes(self, capsys):
        assert main(["timing", "ex", "--flow", "ours", "--bits", "4"]) == 0
        assert "[ok]" in capsys.readouterr().out

    def test_tight_period_fails(self, capsys):
        assert main(["timing", "ex", "--flow", "default", "--bits", "4",
                     "--period", "10"]) == 1
        out = capsys.readouterr().out
        assert "[FAIL]" in out and "VIOLATED" in out

    def test_verbose_prints_paths(self, capsys):
        assert main(["timing", "ex", "--flow", "default", "--bits", "4",
                     "-v"]) == 0
        assert "arrival" in capsys.readouterr().out

    def test_json_format(self, capsys):
        assert main(["timing", "ex", "--flow", "default", "--bits", "4",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["ok"] is True and data["flow"] == "default"
        target = data["targets"][0]
        assert target["target"] == "ex" and target["cmd_ok"] is True
        assert target["endpoints"]
        assert all(e["slack"] is None or e["slack"] >= 0
                   for e in target["endpoints"])

    def test_unknown_target_exits_2(self, capsys):
        assert main(["timing", "no-such-benchmark"]) == 2

    def test_target_report_ignores_other_targets(self, capsys):
        # A target's report is a property of its netlist alone, not of
        # which targets the same run timed before it.
        assert main(["timing", "tseng", "--bits", "4",
                     "--format", "json"]) == 0
        alone = json.loads(capsys.readouterr().out)["targets"]
        assert main(["timing", "--bits", "4", "--format", "json"]) == 0
        every = json.loads(capsys.readouterr().out)["targets"]
        assert [t for t in every if t["target"] == "tseng"] == alone

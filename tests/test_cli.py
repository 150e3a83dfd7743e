"""Tests for the command-line interface (fast subcommands only)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main


class TestCli:
    def test_synth_command(self, capsys):
        assert main(["synth", "ex", "-k", "3", "-a", "2", "-b", "1",
                     "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "Schedule of ex" in out
        assert "mergers applied" in out

    def test_fig2_command(self, capsys):
        assert main(["fig2"]) == 0
        out = capsys.readouterr().out
        assert "Schedule of ex" in out
        assert "share" in out

    def test_fig3_command(self, capsys):
        assert main(["fig3"]) == 0
        out = capsys.readouterr().out
        assert "Schedule of dct" in out
        assert "Schedule of diffeq" in out
        assert "loop while cond" in out

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            main(["synth", "nothere"])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])

    def test_synth_history_printed(self, capsys):
        main(["synth", "tseng", "--bits", "4"])
        out = capsys.readouterr().out
        assert "dE=" in out and "dH=" in out


class TestCliExtensions:
    def test_explore_command(self, capsys):
        assert main(["explore", "tseng", "--bits", "8"]) == 0
        out = capsys.readouterr().out
        assert "Pareto front" in out

    def test_export_dot(self, capsys):
        assert main(["export", "tseng", "--what", "dot"]) == 0
        assert capsys.readouterr().out.startswith("digraph")

    def test_export_json(self, capsys):
        import json
        assert main(["export", "tseng", "--what", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["format"] == "repro-design-v1"

    def test_export_verilog(self, capsys):
        assert main(["export", "tseng", "--what", "verilog",
                     "--bits", "4"]) == 0
        out = capsys.readouterr().out
        assert "module" in out and "endmodule" in out

    def test_report_command(self, tmp_path, capsys):
        rows = tmp_path / "rows.jsonl"
        rows.write_text("")
        assert main(["report", "--rows", str(rows)]) == 0
        assert "no rows recorded" in capsys.readouterr().out


#: A ``table1`` row with every column the report reads.
_TABLE_ROW = {"kind": "table1", "flow": "ours", "bits": 4,
              "coverage_pct": 90.0, "test_cycles": 100, "area_mm2": 1.0}

#: Damaged second lines of a rows file, with the error each one gives.
DAMAGED_ROWS = {
    "unterminated": ('{"kind": "table1"', "line 2 is not a JSON object"),
    "no-bits": (json.dumps({k: v for k, v in _TABLE_ROW.items()
                            if k != "bits"}),
                "line 2: table1 row lacks bits"),
    "unknown-flow": (json.dumps(dict(_TABLE_ROW, flow="nope")),
                     "line 2: unknown flow 'nope'"),
    "string-bits": (json.dumps(dict(_TABLE_ROW, bits="8")),
                    "line 2: table1 row's bits is '8', not an integer"),
    "string-coverage": (json.dumps(dict(_TABLE_ROW, coverage_pct="90")),
                        "line 2: table1 row's coverage_pct is '90', not a "
                        "number"),
    "not-an-object": ("[1,2]", "line 2 is not a JSON object"),
}


@pytest.mark.parametrize("line,message", DAMAGED_ROWS.values(),
                         ids=DAMAGED_ROWS.keys())
def test_damaged_rows_file_is_a_one_line_error(line, message, tmp_path,
                                               capsys):
    rows = tmp_path / "rows.jsonl"
    rows.write_text(json.dumps(_TABLE_ROW) + "\n" + line + "\n")
    assert main(["report", "--rows", str(rows)]) == 3
    assert capsys.readouterr().err == f"error: {rows}: {message}\n"


def test_damaged_journal_is_a_one_line_error(tmp_path, capsys):
    # Damage before the last line is not a torn append: resuming stops.
    journal = tmp_path / "j.jsonl"
    journal.write_text('{"kind": "note"}\n{"torn": tr\n{"kind": "note"}\n')
    assert main(["bench", "ex", "--flow", "ours", "--bits", "4",
                 "--journal", str(journal), "--resume"]) == 3
    assert capsys.readouterr().err == (
        f"error: {journal}: line 2 is not a JSON object; the journal is "
        f"damaged\n")


#: Damaged cell records, with the error resuming from each one gives.
DAMAGED_CELLS = {
    "no-benchmark": ({"kind": "cell", "flow": "ours"},
                     "line 2: cell record lacks benchmark, bits"),
    "string-bits": ({"kind": "cell", "benchmark": "ex", "flow": "ours",
                     "bits": "4"},
                    "line 2: cell record's bits is '4', not an integer"),
}


@pytest.mark.parametrize("record,message", DAMAGED_CELLS.values(),
                         ids=DAMAGED_CELLS.keys())
def test_damaged_cell_record_is_a_one_line_error(record, message, tmp_path,
                                                 capsys):
    journal = tmp_path / "j.jsonl"
    journal.write_text('{"kind": "note"}\n' + json.dumps(record) + "\n")
    assert main(["bench", "ex", "--flow", "ours", "--bits", "4",
                 "--journal", str(journal), "--resume"]) == 3
    assert capsys.readouterr().err == (
        f"error: {journal}: {message}; the journal is damaged\n")


#: Every subcommand that takes a bit width, with the flag that sets it.
WIDTH_COMMANDS = [
    ["table1", "--bits"], ["table2", "--bits"], ["table3", "--bits"],
    ["fig2", "--figure-bits"], ["fig3", "--figure-bits"],
    ["synth", "ex", "--bits"], ["explore", "ex", "--bits"],
    ["export", "ex", "--bits"], ["bench", "ex", "--bits"],
    ["chaos", "--bits"], ["lint", "--bits"], ["analyze", "--bits"],
]


@pytest.mark.parametrize("width", ["0", "-1", "four"])
@pytest.mark.parametrize("command", WIDTH_COMMANDS,
                         ids=[" ".join(c) for c in WIDTH_COMMANDS])
def test_non_positive_width_is_a_usage_error(command, width, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, width])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"expected a positive bit width, got '{width}'" in err


#: Every subcommand flag that takes a count.
COUNT_COMMANDS = [
    ["table1", "--workers"], ["table2", "--workers"], ["table3", "--workers"],
    ["bench", "ex", "--workers"], ["synth", "ex", "-k"],
]


@pytest.mark.parametrize("count", ["0", "-1", "two"])
@pytest.mark.parametrize("command", COUNT_COMMANDS,
                         ids=[" ".join(c) for c in COUNT_COMMANDS])
def test_non_positive_count_is_a_usage_error(command, count, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, count])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"expected a positive count, got '{count}'" in err


#: Every flag that takes a finite real number, the bound it states and
#: the values it rejects.
NUMBER_COMMANDS = [
    (["synth", "ex", "-a"], "non-negative weight", ["-1", "nan", "inf", "x"]),
    (["synth", "ex", "--beta"], "non-negative weight",
     ["-1", "nan", "inf", "x"]),
    (["lint", "--depth-limit"], "non-negative depth",
     ["-1", "nan", "inf", "x"]),
    (["bench", "ex", "--wall-seconds"], "positive number of seconds",
     ["-1", "nan", "inf", "x", "0"]),
]


@pytest.mark.parametrize(
    "command,bound,value",
    [(command, bound, value) for command, bound, values in NUMBER_COMMANDS
     for value in values],
    ids=[f"{' '.join(command)}-{value}" for command, _, values
         in NUMBER_COMMANDS for value in values])
def test_non_finite_or_out_of_range_number_is_a_usage_error(
        command, bound, value, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, value])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert f"expected a finite {bound}, got '{value}'" in err


#: Every subcommand that resumes from a journal.
RESUME_COMMANDS = [["table1"], ["table2"], ["table3"], ["bench", "ex"]]


@pytest.mark.parametrize("command", RESUME_COMMANDS,
                         ids=[" ".join(c) for c in RESUME_COMMANDS])
def test_resume_without_journal_is_a_usage_error(command, capsys):
    with pytest.raises(SystemExit) as exit_:
        main([*command, "--resume", "--workers", "1"])
    assert exit_.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:")
    assert "--resume needs --journal" in err


def test_closed_stdout_prints_no_traceback():
    # Like ``repro-hlts lint --list-rules | head -1``, deterministically:
    # the reader is gone before the command writes a byte.
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    try:
        done = subprocess.run(
            [sys.executable, "-m", "repro", "lint", "--list-rules"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert done.stderr == b""
    assert done.returncode == 1

"""Atomic writes, the cell journal, and resumable experiment grids."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.atpg import RandomPhaseConfig
from repro.errors import ReproError
from repro.harness import ExperimentConfig, render_table, run_cell
from repro.runtime import (Budget, Journal, JournaledCell,
                           atomic_write_text, cell_record, record_key,
                           restore_cell, run_journaled_grid,
                           scrubbed_records)
from repro.runtime.checkpoint import JOURNAL_FORMAT


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


@pytest.fixture(scope="module")
def ex_cell():
    return run_cell("ex", "ours", _tiny_config(4))


class TestAtomicWrite:
    def test_writes_content(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "hello\n")
        assert path.read_text() == "hello\n"

    def test_overwrites(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "x")
        assert os.listdir(tmp_path) == ["out.txt"]

    def test_failure_leaves_target_untouched(self, tmp_path):
        path = tmp_path / "out.txt"
        atomic_write_text(path, "original")

        class Boom:
            def __str__(self):
                raise RuntimeError("boom")

        with pytest.raises(TypeError):
            atomic_write_text(path, Boom())  # type: ignore[arg-type]
        assert path.read_text() == "original"
        assert os.listdir(tmp_path) == ["out.txt"]


class TestJournal:
    def test_records_of_missing_file(self, tmp_path):
        assert Journal(tmp_path / "none.jsonl").records() == []

    def test_append_is_valid_jsonl(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append({"kind": "cell", "benchmark": "ex", "flow": "ours",
                        "bits": 4})
        journal.append({"kind": "cell", "benchmark": "ex", "flow": "camad",
                        "bits": 4})
        lines = (tmp_path / "j.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)
        assert len(journal.records()) == 2

    def test_completed_cells_latest_wins(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_formatted("ours", 1))
        journal.append(_formatted("ours", 2))
        done = journal.completed_cells()
        assert list(done) == [("ex", "ours", 4)]
        assert done[("ex", "ours", 4)]["row"]["test_cycles"] == 2

    def test_cell_record_round_trip(self, ex_cell):
        record = cell_record(ex_cell)
        assert record["format"] == JOURNAL_FORMAT
        assert "provenance" not in record       # a complete cell
        assert record_key(record) == ("ex", "ours", 4)
        restored = restore_cell(record)
        assert isinstance(restored, JournaledCell)
        assert restored.row() == ex_cell.row()
        table_live = render_table("ex", [ex_cell])
        table_restored = render_table("ex", [restored])
        assert table_restored == table_live


def _formatted(flow: str, value: int = 0) -> dict:
    """A cell record that resumes; ``value`` is its test cycles."""
    row = {"benchmark": "ex", "flow": flow, "bits": 4, "steps": 4,
           "modules": 3, "registers": 4, "muxes": 5, "coverage_pct": 90.0,
           "tg_effort_k": 1.0, "tg_seconds": 0.5, "test_cycles": value,
           "area_mm2": 1.0}
    return {"format": JOURNAL_FORMAT, "kind": "cell", "benchmark": "ex",
            "flow": flow, "bits": 4, "row": row, "alloc": ["R: a, b"]}


class TestAppendFastPath:
    def test_append_is_in_place_after_creation(self, tmp_path):
        journal = Journal(tmp_path / "j.jsonl")
        journal.append(_formatted("camad"))
        inode = os.stat(journal.path).st_ino
        journal.append(_formatted("ours"))
        # The O(1) fast path appends to the existing file; an atomic
        # rewrite would have renamed a temp file over it (new inode).
        assert os.stat(journal.path).st_ino == inode
        assert len(journal.records()) == 2

    def test_headerless_file_falls_back_to_rewrite(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"kind": "cell", "benchmark": "ex", '
                        '"flow": "camad", "bits": 4}\n')
        inode = os.stat(path).st_ino
        journal = Journal(path)
        journal.append(_formatted("ours"))
        assert os.stat(path).st_ino != inode
        assert len(journal.records()) == 2

    def test_torn_tail_dropped_and_append_repairs(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(json.dumps(_formatted("camad")) + "\n"
                        + '{"torn": tr')
        journal = Journal(path)
        assert len(journal.records()) == 1      # torn tail dropped
        journal.append(_formatted("ours"))      # no trailing \n: rewrite
        assert [json.loads(line) for line in
                path.read_text().splitlines()] == journal.records()
        assert len(journal.records()) == 2

    def test_mid_file_corruption_still_raises(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text('{"torn": tr\n' + json.dumps(_formatted("ours"))
                        + "\n")
        with pytest.raises(ReproError,
                           match=r"j\.jsonl: line 1 is not a JSON object"):
            Journal(path).records()


class TestScrubbedRecords:
    def test_masks_wall_clock_and_sorts_by_grid_key(self):
        ours = dict(_formatted("ours"),
                    row={"tg_seconds": 1.23, "coverage_pct": 92.3},
                    provenance={"degradation": ["budget_exhausted"]})
        camad = dict(_formatted("camad"),
                     row={"tg_seconds": 9.87, "coverage_pct": 90.0})
        ours_rerun = dict(ours, row={"tg_seconds": 4.56,
                                     "coverage_pct": 92.3})
        ours_rerun.pop("provenance")
        # Completion order and wall clock differ; scrubbed bytes match.
        assert scrubbed_records([ours, camad]) == \
            scrubbed_records([camad, ours_rerun])
        assert "tg_seconds" not in scrubbed_records([ours])

    def test_deterministic_difference_still_detected(self):
        a = dict(_formatted("ours"), row={"tg_seconds": 1.0,
                                          "coverage_pct": 92.3})
        b = dict(_formatted("ours"), row={"tg_seconds": 1.0,
                                          "coverage_pct": 90.0})
        assert scrubbed_records([a]) != scrubbed_records([b])


class TestJournaledGrid:
    def test_resume_replays_instead_of_recomputing(self, tmp_path):
        grid = [("camad", 4), ("ours", 4)]
        journal = Journal(tmp_path / "grid.jsonl")
        first = run_journaled_grid("ex", grid, _tiny_config,
                                   journal=journal)
        assert len(journal.records()) == 2
        progress: list[str] = []
        second = run_journaled_grid("ex", grid, _tiny_config,
                                    journal=journal, resume=True,
                                    progress=progress.append)
        assert second.replayed == 2 and second.computed == 0
        assert sum("resuming" in p for p in progress) == 2
        assert [c.row() for c in second] == [c.row() for c in first]

    def test_degraded_cell_reasons_survive_the_journal(self, tmp_path):
        grid = [("ours", 4)]
        journal = Journal(tmp_path / "grid.jsonl")
        cells = run_journaled_grid("ex", grid, _tiny_config,
                                   journal=journal,
                                   budget=Budget(max_steps=1))
        reasons = list(cells[0].degradation)
        assert reasons
        [record] = journal.records()
        assert record["provenance"]["degradation"] == reasons
        resumed = run_journaled_grid("ex", grid, _tiny_config,
                                     journal=journal, resume=True)
        assert resumed.replayed == 1 and resumed.computed == 0
        assert list(resumed[0].degradation) == reasons

    def test_without_resume_recomputes(self, tmp_path):
        grid = [("ours", 4)]
        journal = Journal(tmp_path / "grid.jsonl")
        run_journaled_grid("ex", grid, _tiny_config, journal=journal)
        again = run_journaled_grid("ex", grid, _tiny_config,
                                   journal=journal, resume=False)
        assert again.replayed == 0 and again.computed == 1

    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
    def test_bad_cell_wall_seconds_rejected_before_any_cell(
            self, seconds, tmp_path, monkeypatch):
        # A NaN allowance also made the worker reap horizon NaN, so a
        # hung worker was never reaped.
        import repro.harness.experiment as experiment
        ran: list[str] = []
        monkeypatch.setattr(experiment, "run_cell",
                            lambda benchmark, *args, **kwargs:
                            ran.append(benchmark))
        journal = Journal(tmp_path / "grid.jsonl")
        with pytest.raises(ValueError, match="cell_wall_seconds"):
            run_journaled_grid("ex", [("ours", 4)], _tiny_config,
                               journal=journal, cell_wall_seconds=seconds)
        assert ran == []
        assert journal.records() == []

    def test_no_journal_is_plain_run(self):
        cells = run_journaled_grid("ex", [("ours", 4)], _tiny_config)
        assert len(cells) == 1
        assert cells[0].row()["flow"] == "ours"

    def test_hard_kill_between_commits_resumes_to_an_uninterrupted_run(
            self, tmp_path):
        # os._exit runs no unwinding and no finally: the process is gone
        # between the first cell's commit and the second's.
        script = (
            "import os, sys\n"
            "from repro.atpg import RandomPhaseConfig\n"
            "from repro.harness import ExperimentConfig\n"
            "from repro.runtime import Journal, run_journaled_grid\n"
            "def tiny_config(bits):\n"
            "    return ExperimentConfig(\n"
            "        bits=bits, fault_fraction=0.25,\n"
            "        random=RandomPhaseConfig(max_sequences=4, saturation=2,\n"
            "                                 sequence_length=12),\n"
            "        max_backtracks=16)\n"
            "real_append = Journal.append\n"
            "calls = []\n"
            "def append(self, record):\n"
            "    calls.append(record)\n"
            "    if len(calls) == 2:\n"
            "        os._exit(7)\n"
            "    real_append(self, record)\n"
            "Journal.append = append\n"
            "run_journaled_grid('ex', [('camad', 4), ('ours', 4)],\n"
            "                   tiny_config, journal=Journal(sys.argv[1]))\n")
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        killed = Journal(tmp_path / "killed.jsonl")
        done = subprocess.run([sys.executable, "-c", script,
                               str(killed.path)],
                              env=env, capture_output=True, text=True,
                              timeout=120)
        assert done.returncode == 7, done.stderr
        assert len(killed.records()) == 1

        grid = [("camad", 4), ("ours", 4)]
        resumed = run_journaled_grid("ex", grid, _tiny_config,
                                     journal=killed, resume=True)
        assert resumed.replayed == 1 and resumed.computed == 1
        reference = Journal(tmp_path / "reference.jsonl")
        run_journaled_grid("ex", grid, _tiny_config, journal=reference)
        assert scrubbed_records(killed.records()) == \
            scrubbed_records(reference.records())

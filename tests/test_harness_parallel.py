"""The grid runner's worker path: determinism, crash degradation,
reaping, resume at another worker count, Ctrl-C, the explore sweep."""

import importlib
import time

import pytest

from repro.atpg import RandomPhaseConfig
from repro.bench import load
from repro.cost import CostModel
from repro.harness import ExperimentConfig
from repro.runtime import (ACTION_CRASH, Injection, Journal,
                           run_journaled_grid, scrubbed_records)
from repro.runtime import checkpoint as checkpoint_module


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


GRID = [("camad", 4), ("approach2", 4)]


class TestDeterminism:
    @pytest.fixture(scope="class")
    def sequential(self, tmp_path_factory):
        journal = Journal(tmp_path_factory.mktemp("seq") / "grid.jsonl")
        cells = run_journaled_grid("ex", GRID, _tiny_config,
                                   journal=journal, workers=1)
        return cells, journal

    def test_workers2_journal_identical_to_workers1(self, sequential,
                                                    tmp_path):
        cells, journal = sequential
        parallel_journal = Journal(tmp_path / "grid.jsonl")
        parallel = run_journaled_grid("ex", GRID, _tiny_config,
                                      journal=parallel_journal, workers=2)
        assert parallel.ok() and cells.ok()
        assert scrubbed_records(parallel_journal.records()) == \
            scrubbed_records(journal.records())
        assert [c.row()["coverage_pct"] for c in parallel] == \
            [c.row()["coverage_pct"] for c in cells]

    def test_cells_come_back_in_grid_order(self, sequential):
        cells, _journal = sequential
        keys = [(c.benchmark, c.flow, c.bits) for c in cells]
        assert keys == [("ex", flow, bits) for flow, bits in GRID]
        assert cells.computed == len(GRID)
        assert cells.replayed == 0


class TestWorkerCrash:
    def test_crash_degrades_and_resume_completes(self, tmp_path):
        journal = Journal(tmp_path / "grid.jsonl")
        crash = {("ex", "approach2", 4):
                 (Injection("harness.worker", ACTION_CRASH),)}
        cells = run_journaled_grid("ex", GRID, _tiny_config,
                                   journal=journal, workers=2,
                                   worker_chaos=crash)
        assert not cells.ok()
        assert [s.key for s in cells.skipped] == [("ex", "approach2", 4)]
        assert "ChaosCrash" in cells.skipped[0].reason
        assert len(cells) == 1                  # explicitly partial grid
        assert len(journal.completed_cells()) == 1

        # resume at another worker count: inline this time
        resumed = run_journaled_grid("ex", GRID, _tiny_config,
                                     journal=journal, resume=True,
                                     workers=1)
        assert resumed.ok()
        assert resumed.replayed == 1            # survivor from the journal
        assert resumed.computed == 1            # only the lost cell re-ran
        assert len(resumed) == len(GRID)
        assert len(journal.completed_cells()) == len(GRID)


class TestDegradation:
    def test_cell_wall_ceiling_degrades_instead_of_hanging(self):
        cells = run_journaled_grid("ex", [("ours", 4)], _tiny_config,
                                   workers=2, cell_wall_seconds=0.001)
        assert cells.ok()                       # a row, not a lost cell
        assert cells[0].row()["degraded"] is True
        # The *why* survives the worker's round trip too.
        assert any("budget_exhausted" in reason
                   for reason in cells[0].degradation)

    def test_hung_worker_cell_is_reaped_at_its_deadline(self, monkeypatch):
        import repro.harness.experiment as experiment_module

        def hanging(*args, **kwargs):
            time.sleep(60)

        monkeypatch.setattr(experiment_module, "run_cell", hanging)
        started = time.perf_counter()
        cells = run_journaled_grid("ex", [("ours", 4)], _tiny_config,
                                   workers=2, cell_wall_seconds=0.2)
        elapsed = time.perf_counter() - started
        assert len(cells) == 0 and not cells.interrupted
        assert [s.key for s in cells.skipped] == [("ex", "ours", 4)]
        assert "reaped: exceeded deadline 0.2s" in cells.skipped[0].reason
        assert elapsed < 30                     # the 60 s hang was cut


class TestExploreGrid:
    def test_parallel_sweep_matches_sequential(self):
        from repro.synth import explore
        small = [(1, 2.0, 1.0), (3, 2.0, 1.0), (1, 2.0, 1.0)]
        seq = explore(load("ex"), CostModel(bits=4), small)
        par = explore(load("ex"), CostModel(bits=4), small, workers=2)

        def flatten(points):
            return [(p.params, p.execution_time,
                     round(p.hardware_mm2, 9), round(p.quality, 9))
                    for p in points]

        assert flatten(par) == flatten(seq)

    def test_inline_failure_raises_the_original_exception(self,
                                                          monkeypatch):
        explore_module = importlib.import_module("repro.synth.explore")

        def broken(*args):
            raise KeyError("no such op")

        monkeypatch.setattr(explore_module, "synthesize", broken)
        with pytest.raises(KeyError, match="no such op") as raised:
            explore_module.explore(load("ex"), CostModel(bits=4),
                                   [(1, 2.0, 1.0)])
        assert raised.traceback[-1].name == "broken"

    def test_worker_failure_names_the_point(self, monkeypatch):
        from repro.errors import ReproError
        explore_module = importlib.import_module("repro.synth.explore")

        def broken(*args):
            raise KeyError("no such op")

        monkeypatch.setattr(explore_module, "synthesize", broken)
        with pytest.raises(ReproError, match=r"explore point \(1, 2, 1\) "
                                             r"failed: .*KeyError"):
            explore_module.explore(load("ex"), CostModel(bits=4),
                                   [(1, 2.0, 1.0)], workers=2)


class TestInterrupt:
    def test_inline_interrupt_returns_partial_grid(self, tmp_path,
                                                   monkeypatch):
        journal = Journal(tmp_path / "grid.jsonl")
        real_cell = checkpoint_module._grid_cell

        def interrupting(key, *args):
            if key[1] == "approach2":
                raise KeyboardInterrupt
            return real_cell(key, *args)

        monkeypatch.setattr(checkpoint_module, "_grid_cell", interrupting)
        cells = run_journaled_grid("ex", GRID, _tiny_config,
                                   journal=journal, workers=1)
        assert cells.interrupted
        assert len(cells) == 1                  # camad finished first
        assert [s.key for s in cells.skipped] == [("ex", "approach2", 4)]
        assert cells.skipped[0].reason == "interrupted"
        # the finished cell was journaled before the interrupt, so a
        # resume completes the grid without an interrupt in sight
        monkeypatch.setattr(checkpoint_module, "_grid_cell", real_cell)
        resumed = run_journaled_grid("ex", GRID, _tiny_config,
                                     journal=journal, resume=True,
                                     workers=1)
        assert resumed.ok() and not resumed.interrupted
        assert resumed.replayed == 1 and resumed.computed == 1

    def test_pool_interrupt_cancels_and_marks_pending(self, monkeypatch):
        from repro.runtime.worker import ProcessRunner

        def interrupting_wait(self, timeout=None):
            raise KeyboardInterrupt

        monkeypatch.setattr(ProcessRunner, "wait", interrupting_wait)
        cells = run_journaled_grid("ex", GRID, _tiny_config, workers=2)
        assert cells.interrupted and not cells.ok()
        assert len(cells) == 0
        assert sorted(s.key for s in cells.skipped) == \
            sorted(("ex", flow, bits) for flow, bits in GRID)
        assert all(s.reason == "interrupted" for s in cells.skipped)

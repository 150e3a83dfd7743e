"""Content-hash result cache: keys, hit/cold equivalence for grid cells
and ``explore`` sweeps, degraded results never stored."""

from repro.atpg import RandomPhaseConfig
from repro.bench import load
from repro.cost import CostModel
from repro.harness import ExperimentConfig, render_table
from repro.harness.cache import ResultCache, cell_key, synthesis_key
from repro.runtime import Budget, Journal, run_journaled_grid
from repro.synth import SynthesisParams, explore
from repro.synth.explore import DEFAULT_GRID


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


class TestKeys:
    def test_synthesis_key_is_stable(self):
        # Pinned, not just repeatable: on-disk explore entries written
        # by earlier runs hit only while the digest holds.
        assert synthesis_key(load("ex"), SynthesisParams(), 4) == (
            "153d530c2d024c1db6fb8debf47db544"
            "138a1bf1d176e5052fe4a78722ca5f25")

    def test_ours_key_covers_bits_and_params(self):
        dfg = load("ex")
        base = synthesis_key(dfg, SynthesisParams(), 4)
        assert base != synthesis_key(dfg, SynthesisParams(), 8)
        assert base != synthesis_key(dfg, SynthesisParams(k=6), 4)

    def test_key_covers_the_dfg(self):
        assert synthesis_key(load("ex"), SynthesisParams(), 4) != \
            synthesis_key(load("dct"), SynthesisParams(), 4)

    def test_cell_key_covers_the_config(self):
        dfg = load("ex")
        assert cell_key(dfg, "camad", 4, _tiny_config(4)) != \
            cell_key(dfg, "camad", 4, ExperimentConfig(bits=4))


def _objectives(points) -> list[tuple]:
    return [(p.params, p.execution_time, p.hardware_mm2, p.quality)
            for p in points]


class TestSynthesisTier:
    def test_warm_sweep_equals_cold_sweep(self, tmp_path):
        dfg, cost_model = load("ex"), CostModel(bits=4)
        cold = explore(dfg, cost_model)
        explore(dfg, cost_model, cache=ResultCache(tmp_path))
        # A fresh cache object on the filled directory: every point is
        # served from disk, as in a later process.
        warm_cache = ResultCache(tmp_path)
        warm = explore(dfg, cost_model, cache=warm_cache)
        assert _objectives(warm) == _objectives(cold)
        assert warm_cache.stats.hits == len(DEFAULT_GRID)
        assert warm_cache.stats.misses == 0
        for point in warm:
            point.design.validate()  # restored designs are sound

    def test_degraded_synthesis_never_stored(self, tmp_path):
        class Starved:
            degraded = True
        cache = ResultCache(tmp_path)
        cache.put_synthesis("k", Starved())  # type: ignore[arg-type]
        assert cache.stats.stores == 0
        assert list(tmp_path.iterdir()) == []


class TestCellTier:
    GRID = [("camad", 4), ("ours", 4)]

    def test_hit_rows_equal_cold_rows(self, tmp_path):
        cold_journal = Journal(tmp_path / "cold.jsonl")
        cold = run_journaled_grid("ex", self.GRID, _tiny_config,
                                  journal=cold_journal,
                                  cache=ResultCache(tmp_path / "cache"))
        # A second cache object on the same directory, as a later run
        # opens it.
        warm_cache = ResultCache(tmp_path / "cache")
        warm_journal = Journal(tmp_path / "warm.jsonl")
        progress: list[str] = []
        warm = run_journaled_grid("ex", self.GRID, _tiny_config,
                                  journal=warm_journal, cache=warm_cache,
                                  progress=progress.append)
        assert warm_cache.stats.hits == len(self.GRID)
        assert warm_cache.stats.misses == 0
        assert sum("(cache hit)" in p for p in progress) == len(self.GRID)
        # A hit serves the stored record verbatim, wall clock and all,
        # so the warm run journals and renders exactly what the cold
        # run did.
        assert warm_journal.records() == cold_journal.records()
        assert render_table("ex", warm) == render_table("ex", cold)

    def test_degraded_cell_never_cached(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        journal = Journal(tmp_path / "grid.jsonl")
        cells = run_journaled_grid("ex", [("ours", 4)], _tiny_config,
                                   journal=journal, cache=cache,
                                   budget=Budget(max_steps=1))
        assert cells[0].row()["degraded"] is True
        assert cells[0].degradation               # the why is journaled
        assert cache.stats.misses == 1 and cache.stats.stores == 0
        key = journal.records()[0]["provenance"]["cache_key"]
        assert key == cell_key(load("ex"), "ours", 4, _tiny_config(4))
        assert ResultCache(tmp_path / "cache").get_cell(key) is None

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        writer = ResultCache(cache_dir=tmp_path)
        writer.put("aa" + "0" * 62, {"kind": "cell"})
        entry = writer._disk_path("aa" + "0" * 62)
        entry.write_text("{ not json")
        reader = ResultCache(cache_dir=tmp_path)
        assert reader.get("aa" + "0" * 62) is None
        assert reader.stats.misses == 1
        # An entry that parses but will not restore is a miss too, not
        # a hit the caller then has to recompute anyway.
        writer.put("dd" + "0" * 62, {"kind": "synthesis", "design": {}})
        assert reader.get_synthesis("dd" + "0" * 62) is None
        writer.put("ee" + "0" * 62, {"kind": "synthesis"})
        assert reader.get_cell("ee" + "0" * 62) is None
        assert reader.stats.hits == 0 and reader.stats.misses == 3

    def test_wrong_key_disk_entry_is_a_miss(self, tmp_path):
        writer = ResultCache(cache_dir=tmp_path)
        writer.put("bb" + "0" * 62, {"kind": "cell"})
        entry = writer._disk_path("bb" + "0" * 62)
        moved = entry.parent / ("cc" + "0" * 62 + ".json")
        moved.write_text(entry.read_text())
        reader = ResultCache(cache_dir=tmp_path)
        reader._disk_path = lambda key: moved  # type: ignore[method-assign]
        assert reader.get("cc" + "0" * 62) is None

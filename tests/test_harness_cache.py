"""Content-hash result cache: keys, tiers, hit/cold equivalence."""

from repro.atpg import RandomPhaseConfig
from repro.bench import load
from repro.harness import ExperimentConfig, render_table, \
    synthesize_flow_result
from repro.harness.cache import (BIT_INDEPENDENT_FLOWS, ResultCache,
                                 cell_key, run_cell_cached, synthesis_key)
from repro.runtime import Budget
from repro.synth import SynthesisParams


def _tiny_config(bits: int) -> ExperimentConfig:
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


class TestKeys:
    def test_synthesis_key_is_stable(self):
        dfg = load("ex")
        assert synthesis_key(dfg, "camad") == synthesis_key(dfg, "camad")

    def test_baseline_keys_are_bit_independent(self):
        dfg = load("ex")
        for flow in sorted(BIT_INDEPENDENT_FLOWS):
            assert synthesis_key(dfg, flow, bits=4) == \
                synthesis_key(dfg, flow, bits=16)

    def test_ours_key_covers_bits_and_params(self):
        dfg = load("ex")
        base = synthesis_key(dfg, "ours", SynthesisParams(), 4)
        assert base != synthesis_key(dfg, "ours", SynthesisParams(), 8)
        assert base != synthesis_key(dfg, "ours", SynthesisParams(k=6), 4)

    def test_key_covers_the_dfg(self):
        assert synthesis_key(load("ex"), "camad") != \
            synthesis_key(load("dct"), "camad")

    def test_cell_key_covers_the_config(self):
        dfg = load("ex")
        assert cell_key(dfg, "camad", 4, _tiny_config(4)) != \
            cell_key(dfg, "camad", 4, ExperimentConfig(bits=4))

    def test_cell_key_covers_narrowing_knobs(self):
        # A narrowed cell and a plain one must never share a key, nor
        # may two narrowed cells with different input assumptions.
        dfg = load("ex")
        plain = cell_key(dfg, "ours", 16, ExperimentConfig(bits=16))
        narrowed = cell_key(dfg, "ours", 16,
                            ExperimentConfig(bits=16, narrow_widths=True))
        assumed = cell_key(dfg, "ours", 16,
                           ExperimentConfig(bits=16, narrow_widths=True,
                                            narrow_input_bits=8))
        assert len({plain, narrowed, assumed}) == 3


class TestSynthesisTier:
    def test_baseline_synthesis_shared_across_widths(self):
        cache = ResultCache()
        synthesize_flow_result("ex", "camad", 4, cache=cache)
        hits, misses = cache.stats.memory_hits, cache.stats.misses
        wide = synthesize_flow_result("ex", "camad", 16, cache=cache)
        assert cache.stats.memory_hits == hits + 1
        assert cache.stats.misses == misses
        wide.design.validate()  # the restored design is structurally sound

    def test_degraded_synthesis_never_stored(self):
        class Starved:
            degraded = True
        cache = ResultCache()
        cache.put_synthesis("k", Starved())  # type: ignore[arg-type]
        assert len(cache) == 0


class TestCellTier:
    def test_hit_rows_equal_cold_rows(self, tmp_path):
        cache = ResultCache(cache_dir=tmp_path / "cache")
        cold, cold_prov = run_cell_cached("ex", "camad", _tiny_config(4),
                                          cache=cache)
        assert cold_prov["cell_cache"] == "miss"
        warm, warm_prov = run_cell_cached("ex", "camad", _tiny_config(4),
                                          cache=cache)
        assert warm_prov["cell_cache"] == "hit"
        assert warm_prov["cache_key"] == cold_prov["cache_key"]
        # The hit restores the stored record verbatim, wall clock and
        # all, so the rendered table is byte-identical to the cold run.
        assert warm.row() == cold.row()
        assert render_table("ex", [warm]) == render_table("ex", [cold])

    def test_disk_tier_survives_a_new_process_worth_of_state(self, tmp_path):
        shared = tmp_path / "cache"
        first = ResultCache(cache_dir=shared)
        run_cell_cached("ex", "camad", _tiny_config(4), cache=first)
        fresh = ResultCache(cache_dir=shared)   # empty memory tier
        _, provenance = run_cell_cached("ex", "camad", _tiny_config(4),
                                        cache=fresh)
        assert provenance["cell_cache"] == "hit"
        assert fresh.stats.disk_hits >= 1

    def test_degraded_cell_never_cached(self):
        cache = ResultCache()
        cell, provenance = run_cell_cached(
            "ex", "ours", _tiny_config(4), cache=cache,
            budget=Budget(max_steps=1))
        assert cell.row()["degraded"] is True
        assert provenance["cell_cache"] == "miss"
        assert cache.get_cell(provenance["cache_key"]) is None

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
        assert reader.stats.hit_rate() == 0.0

    def test_wrong_key_disk_entry_is_a_miss(self, tmp_path):
        writer = ResultCache(cache_dir=tmp_path)
        writer.put("bb" + "0" * 62, {"kind": "cell"})
        entry = writer._disk_path("bb" + "0" * 62)
        moved = entry.parent / ("cc" + "0" * 62 + ".json")
        moved.write_text(entry.read_text())
        reader = ResultCache(cache_dir=tmp_path)
        reader._disk_path = lambda key: moved  # type: ignore[method-assign]
        assert reader.get("cc" + "0" * 62) is None

"""Content-hash result cache for synthesis runs and experiment cells.

The benchmark × flow × bit-width grids behind Tables 1-3 (and the
``explore`` parameter sweeps) re-evaluate the same work constantly: a
warm re-run repeats every cell verbatim, and the three baseline flows
synthesise the *identical* design at 4, 8 and 16 bits because none of
them consults the bit-width-dependent cost model.  This module makes
every such repeat a lookup instead of a re-run.

Keys are stable SHA-256 digests of the canonicalised inputs — the
:func:`repro.io.dfg_to_dict` serialisation of the DFG plus the flow
name and every parameter that can change the output
(:class:`~repro.synth.algorithm.SynthesisParams` and the cost-model
bit width for ``ours``; the full
:class:`~repro.harness.experiment.ExperimentConfig` for a cell) — so a
hit is exact by construction, never heuristic.  Two result kinds are
cached:

* **synthesis** — one flow's :class:`~repro.synth.result.
  SynthesisResult`, serialised through :func:`repro.io.design_to_dict`
  plus the merger history.  Baseline flows (``camad``, ``approach1``,
  ``approach2``) ignore the cost model entirely, so their key excludes
  the bit width and one 4-bit synthesis serves the 8- and 16-bit cells.
* **cell** — one full table cell, stored as the same record the
  checkpoint :class:`~repro.runtime.checkpoint.Journal` uses and
  restored as a :class:`~repro.runtime.checkpoint.JournaledCell`, so a
  cache hit renders byte-identically to the cold run it memoises.

The cache has an in-memory tier (per process) and an optional on-disk
tier (``cache_dir``) shared by the grid runner's worker processes: entries
are content-addressed and written atomically
(:func:`~repro.runtime.atomic.atomic_write_text`), so concurrent
writers of the same key produce the same bytes and readers never see a
torn entry.  Degraded results (budget-exhausted partial runs) are
never stored — a starved run must not poison future unstarved ones.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional, TYPE_CHECKING

from ..runtime.atomic import atomic_write_text

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..dfg import DFG
    from ..synth import SynthesisParams, SynthesisResult

#: Key-material epoch; bump when cached semantics change so stale
#: on-disk entries miss instead of resurrecting old behaviour.
#: v2: cells gained the width-narrowing knobs (``narrow_widths``,
#: ``narrow_input_bits``) — a narrowed cell's area must never be served
#: for a plain one, and v1 entries predate the fields entirely.
CACHE_EPOCH = "repro-cache-v2"

#: On-disk entry format tag.
ENTRY_FORMAT = "repro-cache-entry-v1"

#: Flows whose synthesis ignores the cost model (and hence the bit
#: width): their synthesis key is shared across 4/8/16-bit cells.
BIT_INDEPENDENT_FLOWS = frozenset({"camad", "approach1", "approach2"})


def _digest(material: dict) -> str:
    """Stable SHA-256 over canonical JSON (sorted keys, tight commas)."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def synthesis_key(dfg: "DFG", flow: str,
                  params: "SynthesisParams | None" = None,
                  bits: int = 8) -> str:
    """Cache key of one synthesis run.

    For ``ours`` the key covers every :class:`SynthesisParams` field
    plus the cost-model bit width (ΔH depends on it); for the baseline
    flows neither matters — see :data:`BIT_INDEPENDENT_FLOWS`.
    """
    from ..io import dfg_to_dict
    material: dict[str, Any] = {
        "epoch": CACHE_EPOCH,
        "kind": "synthesis",
        "dfg": dfg_to_dict(dfg),
        "flow": flow,
    }
    if flow not in BIT_INDEPENDENT_FLOWS:
        from ..synth import SynthesisParams
        material["params"] = asdict(params or SynthesisParams())
        material["bits"] = bits
    return _digest(material)


def cell_key(dfg: "DFG", flow: str, bits: int, config: Any) -> str:
    """Cache key of one full experiment cell (synthesis + ATPG + cost).

    Covers the canonical DFG, the flow, the bit width and the complete
    :class:`~repro.harness.experiment.ExperimentConfig` (budgets, fault
    sampling, ATPG seed — and the dataflow narrowing knobs, so a
    narrowed cell and a plain one never share a key), plus the
    per-width paper parameters ``ours`` derives from the bit width —
    everything that can change a row.
    """
    from ..io import dfg_to_dict
    material: dict[str, Any] = {
        "epoch": CACHE_EPOCH,
        "kind": "cell",
        "dfg": dfg_to_dict(dfg),
        "flow": flow,
        "bits": bits,
        "config": asdict(config),
    }
    if flow == "ours":
        from .experiment import PAPER_PARAMS
        material["paper_params"] = list(PAPER_PARAMS.get(bits, (3, 2.0, 1.0)))
    return _digest(material)


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/store counters, split by tier."""

    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def hits(self) -> int:
        return self.memory_hits + self.disk_hits

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups served from either tier (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class ResultCache:
    """Two-tier content-addressed result cache.

    The in-memory tier is a plain dict private to this process: its
    longest-lived holder is one CLI command, whose grid stores a few
    dozen entries at most.  The optional disk tier (``cache_dir``) is
    shared between processes and across runs.  Disk entries are one
    JSON file per key under a two-character fan-out directory, written
    atomically; unreadable or mismatched entries are treated as misses,
    never as errors — a corrupt cache can only cost time, not
    correctness.
    """

    cache_dir: Optional[Path] = None
    stats: CacheStats = field(default_factory=CacheStats)
    _memory: dict[str, dict] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        if self.cache_dir is not None:
            self.cache_dir = Path(self.cache_dir)

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        assert self.cache_dir is not None
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str,
            restore: Callable[[dict], Any] = lambda payload: payload
            ) -> Any:
        """The entry under ``key`` passed through ``restore``, or None.

        An entry that ``restore`` rejects (raises or returns None) is
        counted as a miss, like an absent one, and is dropped from the
        memory tier: only a usable entry is a hit.
        """
        tier, payload = "memory", self._memory.get(key)
        if payload is None and self.cache_dir is not None:
            tier, payload = "disk", self._read_disk(key)
        if payload is not None:
            try:
                value = restore(payload)
            except Exception:  # noqa: BLE001 - corrupt entry == miss
                value = None
            if value is not None:
                if tier == "memory":
                    self.stats.memory_hits += 1
                else:
                    self._memory[key] = payload
                    self.stats.disk_hits += 1
                return value
            self._memory.pop(key, None)
        self.stats.misses += 1
        return None

    def _read_disk(self, key: str) -> Optional[dict]:
        """The payload of a well-formed disk entry for ``key``, or None."""
        try:
            entry = json.loads(self._disk_path(key).read_text())
        except (OSError, ValueError):
            return None
        if (isinstance(entry, dict)
                and entry.get("format") == ENTRY_FORMAT
                and entry.get("key") == key
                and isinstance(entry.get("payload"), dict)):
            return entry["payload"]
        return None

    def put(self, key: str, payload: dict) -> None:
        """Store ``payload`` in every configured tier."""
        self._memory[key] = payload
        self.stats.stores += 1
        if self.cache_dir is not None:
            path = self._disk_path(key)
            path.parent.mkdir(parents=True, exist_ok=True)
            atomic_write_text(path, json.dumps(
                {"format": ENTRY_FORMAT, "key": key, "payload": payload},
                sort_keys=True) + "\n")

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    # Synthesis results
    # ------------------------------------------------------------------
    def get_synthesis(self, key: str) -> "SynthesisResult | None":
        """A cached synthesis result, rebuilt and re-validated."""
        return self.get(key, _restore_synthesis)

    def put_synthesis(self, key: str, result: "SynthesisResult") -> None:
        """Store a *complete* synthesis result (degraded runs are not
        cached — a budget-starved design must not shadow the converged
        one)."""
        if result.degraded:
            return
        self.put(key, _synthesis_payload(result))

    # ------------------------------------------------------------------
    # Experiment cells
    # ------------------------------------------------------------------
    def get_cell(self, key: str) -> Optional[dict]:
        """A cached cell's journal-style record, or None."""
        return self.get(key, lambda payload: payload
                        if payload.get("kind") == "cell" else None)

    def put_cell(self, key: str, record: dict) -> None:
        """Store one completed cell's journal-style record."""
        if record.get("row", {}).get("degraded"):
            return
        self.put(key, record)


def _synthesis_payload(result: "SynthesisResult") -> dict:
    from ..io import design_to_dict
    return {
        "kind": "synthesis",
        "design": design_to_dict(result.design),
        "params": dict(result.params),
        "history": [dict(asdict(r), order=list(r.order))
                    for r in result.history],
        "skipped": [asdict(s) for s in result.skipped],
    }


def _restore_synthesis(payload: dict) -> "SynthesisResult":
    from ..io import design_from_dict
    from ..synth.result import (MergeRecord, SkippedCandidate,
                                SynthesisResult)
    design = design_from_dict(payload["design"])
    history = [MergeRecord(**dict(r, order=tuple(r["order"])))
               for r in payload["history"]]
    skipped = [SkippedCandidate(**s) for s in payload["skipped"]]
    return SynthesisResult(design, history, params=dict(payload["params"]),
                           skipped=skipped)


# ----------------------------------------------------------------------
# Cache-aware cell runner
# ----------------------------------------------------------------------
def run_cell_cached(benchmark: str, flow: str, config: Any,
                    cache: Optional[ResultCache] = None,
                    budget: Any = None) -> tuple[Any, dict]:
    """Run (or restore) one table cell through the cache.

    Returns ``(cell, provenance)``: the cell is a live
    :class:`~repro.harness.experiment.CellResult` on a miss and a
    :class:`~repro.runtime.checkpoint.JournaledCell` on a hit — the two
    render identically.  The provenance dict records the cell-tier
    verdict and the cache key.
    """
    from ..bench import load
    from ..runtime.checkpoint import cell_record, restore_cell
    from .experiment import run_cell

    if cache is None:
        return run_cell(benchmark, flow, config, budget=budget), {
            "cell_cache": "off"}

    key = cell_key(load(benchmark), flow, config.bits, config)
    record = cache.get_cell(key)
    if record is not None:
        return restore_cell(record), {"cell_cache": "hit", "cache_key": key}
    cell = run_cell(benchmark, flow, config, budget=budget, cache=cache)
    if not cell.degraded:
        cache.put_cell(key, cell_record(cell, provenance={"cache_key": key}))
    return cell, {"cell_cache": "miss", "cache_key": key}


def evaluate_cell(benchmark: str, flow: str, config: Any,
                  cache: Optional[ResultCache] = None,
                  budget: Any = None) -> tuple[Any, dict]:
    """Evaluate one grid cell: visit the ``harness.worker`` chaos seam,
    run :func:`run_cell_cached`, and return ``(cell, journal record)``.
    The record's provenance keeps the cache key and a degraded cell's
    reasons (the why, not just the row's degraded bit); a cache hit's
    stored record is kept as is."""
    from ..runtime.chaos import chaos_point
    from ..runtime.checkpoint import cell_record

    chaos_point("harness.worker", (benchmark, flow, config.bits))
    cell, provenance = run_cell_cached(benchmark, flow, config, cache=cache,
                                       budget=budget)
    if provenance["cell_cache"] == "hit":
        return cell, cell_record(cell)
    extra = {k: v for k, v in provenance.items() if k == "cache_key"}
    if cell.degradation:
        extra["degradation"] = list(cell.degradation)
    return cell, cell_record(cell, provenance=extra)

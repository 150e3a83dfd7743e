"""Content-hash result cache for table cells and ``explore`` sweeps.

A warm re-run of a Table 1-3 grid repeats every cell verbatim, and a
re-run ``explore`` sweep repeats every grid point's synthesis.  This
module makes each such repeat a lookup instead of a re-run.

Keys are stable SHA-256 digests of the canonicalised inputs — the
:func:`repro.io.dfg_to_dict` serialisation of the DFG plus every
parameter that can change the output
(:class:`~repro.synth.algorithm.SynthesisParams` and the cost-model
bit width for an ``explore`` point; the flow and the full
:class:`~repro.harness.experiment.ExperimentConfig` for a cell) — so a
hit is exact by construction, never heuristic.  Two result kinds are
cached:

* **synthesis** — one ``explore`` point's :class:`~repro.synth.result.
  SynthesisResult`, serialised through :func:`repro.io.design_to_dict`
  plus the merger history.
* **cell** — one full table cell, stored as the record the checkpoint
  :class:`~repro.runtime.checkpoint.Journal` holds, so a cache hit
  journals and renders byte-identically to the cold run it memoises.

The cache is one directory (``cache_dir``) shared by the grid runner's
worker processes and across runs: entries are content-addressed and
written atomically (:func:`~repro.runtime.atomic.atomic_write_text`),
so concurrent writers of the same key produce the same bytes and
readers never see a torn entry.  Degraded results (budget-exhausted
partial runs) are never stored — a starved run must not poison future
unstarved ones.
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
#: on-disk entries miss instead of resurrecting old behaviour.  Adding
#: or dropping an :class:`~repro.harness.experiment.ExperimentConfig`
#: field needs no bump: :func:`cell_key` hashes every field by name, so
#: that alone moves every cell key.
CACHE_EPOCH = "repro-cache-v2"

#: On-disk entry format tag.
ENTRY_FORMAT = "repro-cache-entry-v1"


def _digest(material: dict) -> str:
    """Stable SHA-256 over canonical JSON (sorted keys, tight commas)."""
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def synthesis_key(dfg: "DFG", params: "SynthesisParams", bits: int) -> str:
    """Cache key of one ``explore`` point: Algorithm 1 on ``dfg`` with
    every :class:`SynthesisParams` field and the cost-model bit width
    (ΔH depends on it).  The material still names the flow, ``ours``,
    as it did when baseline flows were cached too, so on-disk entries
    written then keep hitting.
    """
    from ..io import dfg_to_dict
    return _digest({
        "epoch": CACHE_EPOCH,
        "kind": "synthesis",
        "dfg": dfg_to_dict(dfg),
        "flow": "ours",
        "params": asdict(params),
        "bits": bits,
    })


def cell_key(dfg: "DFG", flow: str, bits: int, config: Any) -> str:
    """Cache key of one full experiment cell (synthesis + ATPG + cost).

    Covers the canonical DFG, the flow, the bit width and the complete
    :class:`~repro.harness.experiment.ExperimentConfig` (budgets, fault
    sampling, ATPG seed), hashed field by field through ``asdict``,
    plus the per-width paper parameters ``ours`` derives from the bit
    width — everything that can change a row.
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
    """Hit/miss/store counters."""

    hits: int = 0
    misses: int = 0
    stores: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    def hit_rate(self) -> float:
        """Fraction of lookups that were hits (0.0 when idle)."""
        return self.hits / self.lookups if self.lookups else 0.0


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class ResultCache:
    """Content-addressed result cache in one directory.

    The directory is shared between processes and across runs.  Entries
    are one JSON file per key under a two-character fan-out directory,
    written atomically; unreadable or mismatched entries are treated as
    misses, never as errors — a corrupt cache can only cost time, not
    correctness.
    """

    cache_dir: Path
    stats: CacheStats = field(default_factory=CacheStats)

    def __post_init__(self) -> None:
        self.cache_dir = Path(self.cache_dir)

    # ------------------------------------------------------------------
    def _disk_path(self, key: str) -> Path:
        return self.cache_dir / key[:2] / f"{key}.json"

    def get(self, key: str,
            restore: Callable[[dict], Any] = lambda payload: payload
            ) -> Any:
        """The entry under ``key`` passed through ``restore``, or None.

        An entry that ``restore`` rejects (raises or returns None) is
        counted as a miss, like an absent one: only a usable entry is a
        hit.
        """
        payload = self._read_disk(key)
        if payload is not None:
            try:
                value = restore(payload)
            except Exception:  # noqa: BLE001 - corrupt entry == miss
                value = None
            if value is not None:
                self.stats.hits += 1
                return value
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
        """Store ``payload`` under ``key``."""
        self.stats.stores += 1
        path = self._disk_path(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        atomic_write_text(path, json.dumps(
            {"format": ENTRY_FORMAT, "key": key, "payload": payload},
            sort_keys=True) + "\n")

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
        """A cached cell's journal record, or None."""
        return self.get(key, lambda payload: payload
                        if payload.get("kind") == "cell" else None)

    def put_cell(self, key: str, record: dict) -> None:
        """Store one completed cell's journal record, unless degraded."""
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

"""Checkpoint/resume for the experiment harness.

A full paper table is a grid of benchmark × flow × bit-width cells,
each minutes of synthesis + ATPG; before this module a crash at cell
eleven of twelve lost everything.  A :class:`Journal` records each
completed cell as one JSON line — an O(1) fsynced append on the hot
path, an atomic write-temp-rename (:mod:`repro.runtime.atomic`) for
first creation and repair — so a crash loses at most the newest
record and the file always parses.  ``repro-hlts table*`` and
``bench`` grow ``--journal``/``--resume``: a resumed run replays
finished cells from the journal and computes only the remainder.

A finished cell is its record: the flat ``row()`` dict plus the
pre-rendered allocation lines, everything a table needs.  The one cell
evaluator turns a live :class:`~repro.harness.experiment.CellResult`
into that record, and the record is what a worker sends back, what the
journal and the cell cache store, and what a grid returns (restored as
a :class:`JournaledCell`).  So restoring never re-runs synthesis, and
deterministic fields of a resumed table are byte-identical to an
uninterrupted run (wall-clock seconds are the one nondeterministic
column; the chaos harness masks them when comparing).

:func:`run_journaled_grid` is the one way a grid of cells runs — the
table and ``bench`` commands, the chaos scenarios and the benchmark all
call it — inline or with one worker process per cell.
"""

from __future__ import annotations

import json
import os
from contextlib import AbstractContextManager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional

from ..errors import ReproError
from .atomic import atomic_write_text
from .budget import Budget, check_wall_seconds
from .chaos import ChaosInjector, Injection, active_injector, chaos_point
from .worker import InlineRunner, ProcessRunner, Task, run_tasks

#: Journal format tag; bump on incompatible record changes.
JOURNAL_FORMAT = "repro-journal-v1"

#: (benchmark, flow, bits) — the identity of one table cell.
CellKey = tuple[str, str, int]


@dataclass
class JournaledCell:
    """A completed cell, rebuilt from its record.

    Every cell a grid returns is one, whether computed, served by the
    cache or replayed from the journal.  It quacks like
    :class:`~repro.harness.experiment.CellResult` for table rendering:
    ``row()`` and the allocation lines are served verbatim from the
    record.
    """

    benchmark: str
    flow: str
    bits: int
    alloc_lines: list[str] = field(default_factory=list)
    row_data: dict[str, Any] = field(default_factory=dict)
    provenance: dict[str, Any] = field(default_factory=dict)

    def row(self) -> dict[str, Any]:
        return dict(self.row_data)

    @property
    def degradation(self) -> tuple[str, ...]:
        """Degradation reasons journaled with the cell (may be empty)."""
        return tuple(self.provenance.get("degradation", ()))


def cell_record(cell: Any, provenance: dict[str, Any] | None = None) -> dict:
    """Serialise one computed :class:`~repro.harness.experiment.
    CellResult` to its journal record."""
    from ..harness.tables import format_allocation
    record = {
        "format": JOURNAL_FORMAT,
        "kind": "cell",
        "benchmark": cell.benchmark,
        "flow": cell.flow,
        "bits": cell.bits,
        "row": cell.row(),
        "alloc": format_allocation(cell),
    }
    if provenance:
        record["provenance"] = provenance
    return record


def restore_cell(record: dict) -> JournaledCell:
    """Rebuild a render-ready cell from a journal record."""
    return JournaledCell(
        benchmark=record["benchmark"], flow=record["flow"],
        bits=int(record["bits"]), alloc_lines=list(record.get("alloc", [])),
        row_data=dict(record.get("row", {})),
        provenance=dict(record.get("provenance", {})))


def record_key(record: dict) -> CellKey:
    """The grid key of a journal record."""
    return (record["benchmark"], record["flow"], int(record["bits"]))


class Journal:
    """An append-only JSONL journal with crash-safe commits.

    :meth:`append` normally commits one record as a single
    ``write``+``fsync`` of one JSONL line — O(1) per commit, so journal
    writes do not serialise a parallel grid whose parent journals every
    completed cell.  The fast path is guarded by a header check (the
    file must start with a record carrying the journal's format tag and
    end on a newline); a missing, headerless or torn file falls back to
    the original atomic whole-file rewrite (write-temp, fsync, rename),
    which also serves first creation and repairs a torn tail.  A crash
    mid-append can tear at most the newest line, which :meth:`records`
    drops — exactly the loses-at-most-one-record contract the
    ``journal.pre_write`` chaos seam (sitting right before either
    write) proves.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    # ------------------------------------------------------------------
    def records(self) -> list[dict]:
        """Every journaled record ([] when the file does not exist).

        A torn *final* line (an append cut down by a crash) is dropped
        silently — losing at most the newest record is the journal's
        documented crash contract.  Any other line that is not a JSON
        object is damage, not an interrupted append: it raises
        :class:`~repro.errors.ReproError` naming the file and line.
        """
        return [record for _, record in self._numbered_records()]

    def _numbered_records(self) -> list[tuple[int, dict]]:
        """:meth:`records`, each with its 1-based line number."""
        if not self.path.exists():
            return []
        records = []
        lines = self.path.read_text().splitlines()
        for number, line in enumerate(lines, 1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except ValueError:
                if number == len(lines):
                    break  # torn tail from a crashed append
                record = None
            if not isinstance(record, dict):
                raise ReproError(f"{self.path}: line {number} is not a "
                                 f"JSON object; the journal is damaged")
            records.append((number, record))
        return records

    def completed_cells(self) -> dict[CellKey, dict]:
        """Finished cells by grid key (later records win).

        Raises:
            ReproError: as :meth:`records`, and when a cell record lacks
                ``benchmark``, ``flow`` or ``bits`` or its ``bits`` is
                not an integer; the message names the file and line.
        """
        cells = {}
        for number, record in self._numbered_records():
            if record.get("kind") != "cell":
                continue
            missing = [f for f in ("benchmark", "flow", "bits")
                       if f not in record]
            if missing:
                raise ReproError(f"{self.path}: line {number}: cell record "
                                 f"lacks {', '.join(missing)}; the journal "
                                 f"is damaged")
            bits = record["bits"]
            if not isinstance(bits, int) or isinstance(bits, bool):
                raise ReproError(f"{self.path}: line {number}: cell "
                                 f"record's bits is {bits!r}, not an "
                                 f"integer; the journal is damaged")
            cells[record_key(record)] = record
        return cells

    def _appendable(self) -> bool:
        """Can :meth:`append` take the O(1) fast path?

        True only when the file already starts with a well-formed
        record of our format *and* ends on a newline (no torn tail).
        """
        try:
            with open(self.path, "rb") as handle:
                head = handle.readline()
                if not head.endswith(b"\n"):
                    return False
                first = json.loads(head)
                if not (isinstance(first, dict)
                        and first.get("format") == JOURNAL_FORMAT):
                    return False
                handle.seek(-1, os.SEEK_END)
                return handle.read(1) == b"\n"
        except (OSError, ValueError):
            return False

    def append(self, record: dict) -> None:
        """Commit one record (O(1) append, or full rewrite on repair)."""
        line = json.dumps(record, sort_keys=True)
        chaos_point("journal.pre_write")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self._appendable():
            with open(self.path, "a") as handle:
                handle.write(line + "\n")
                handle.flush()
                os.fsync(handle.fileno())
            return
        lines = [json.dumps(r, sort_keys=True) for r in self.records()]
        lines.append(line)
        atomic_write_text(self.path, "\n".join(lines) + "\n")


def scrubbed_records(records: list[dict],
                     mask: tuple[str, ...] = ("tg_seconds",)) -> str:
    """Journal records as canonical bytes for equivalence checks.

    Sorts cell records by grid key (a parallel run journals completions
    in finish order, not grid order) and masks the wall-clock columns —
    the one nondeterministic field of a row — so two runs of the same
    grid compare byte-identical exactly when their deterministic
    content matches.
    """
    scrubbed = []
    for record in records:
        record = json.loads(json.dumps(record))  # deep copy
        if isinstance(record.get("row"), dict):
            for column in mask:
                record["row"].pop(column, None)
        record.pop("provenance", None)
        scrubbed.append(record)
    scrubbed.sort(key=lambda r: (str(r.get("kind")), str(r.get("benchmark")),
                                 str(r.get("flow")), int(r.get("bits", 0))))
    return "\n".join(json.dumps(r, sort_keys=True) for r in scrubbed)


@dataclass(frozen=True)
class SkippedCell:
    """A grid cell that produced no row: its evaluation raised, its
    worker died or was reaped, or Ctrl-C cut the run short."""

    benchmark: str
    flow: str
    bits: int
    reason: str

    @property
    def key(self) -> CellKey:
        return (self.benchmark, self.flow, self.bits)


class GridCells(list[JournaledCell]):
    """The cells of one grid run in grid order, each a
    :class:`JournaledCell` rebuilt from its record, and what became of
    the rest.  Skipped cells are absent: the grid is explicitly
    partial."""

    def __init__(self) -> None:
        super().__init__()
        self.skipped: list[SkippedCell] = []
        self.replayed = 0
        self.computed = 0
        #: Ctrl-C cut the run short; finished cells are journaled, the
        #: unfinished ones skipped as ``"interrupted"``.
        self.interrupted = False

    def ok(self) -> bool:
        """True when no cell was lost."""
        return not self.skipped


def _grid_cell(key: CellKey, config: Any, cache: Any, budget: Any,
               cell_wall_seconds: Optional[float],
               injections: tuple[Injection, ...]) -> tuple[dict, bool]:
    """Evaluate one grid cell: ``(its journal record, cache hit?)``.

    The cell runs under a fresh per-cell budget when the grid has no
    shared one, and under its own chaos plan unless an injector is
    already active.  It visits the ``harness.worker`` chaos seam, then
    serves a cell-cache hit's stored record as it is; otherwise it runs
    :func:`~repro.harness.experiment.run_cell` and stores the record
    unless the cell is degraded.  The record's provenance keeps the
    cache key and a degraded cell's reasons (the why, not just the
    row's degraded bit).
    """
    from ..harness import experiment

    benchmark, flow = key[:2]
    if budget is None and cell_wall_seconds is not None:
        budget = Budget(wall_seconds=cell_wall_seconds)
    plan: AbstractContextManager[Any] = (
        ChaosInjector(*injections)
        if injections and active_injector() is None else nullcontext())
    with plan:
        chaos_point("harness.worker", (benchmark, flow, config.bits))
        provenance: dict[str, Any] = {}
        if cache is not None:
            from ..bench import load
            from ..harness.cache import cell_key
            provenance["cache_key"] = cell_key(load(benchmark), flow,
                                               config.bits, config)
            stored = cache.get_cell(provenance["cache_key"])
            if stored is not None:
                return stored, True
        # Looked up at call time, so a wrapper installed on the module
        # sees every cell.
        cell = experiment.run_cell(benchmark, flow, config, budget=budget)
        if cell.degradation:
            provenance["degradation"] = list(cell.degradation)
        record = cell_record(cell, provenance)
        if cache is not None:
            cache.put_cell(provenance["cache_key"], record)
        return record, False


def _label(key: CellKey) -> str:
    return f"{key[0]}/{key[1]}/{key[2]}-bit"


def run_journaled_grid(benchmark: str,
                       grid: Iterable[tuple[str, int]],
                       config_for: Callable[[int], Any],
                       journal: Optional[Journal] = None,
                       resume: bool = False,
                       progress: Callable[[str], None] | None = None,
                       budget: Any = None,
                       *,
                       workers: Optional[int] = None,
                       cache: Any = None,
                       cell_wall_seconds: Optional[float] = None,
                       worker_chaos: Optional[
                           dict[CellKey, tuple[Injection, ...]]] = None
                       ) -> GridCells:
    """Run (or resume) a grid of table cells, journaling each completion.

    Cells run inline, or with ``workers > 1`` one worker process per
    cell (:mod:`repro.runtime.worker`).  Workers never touch the
    journal: each sends back its cell's record, and this process, the
    sole writer, appends it as the cell finishes, so ``resume`` works
    with any worker count and ``workers=1`` and ``workers=N`` journal
    the same records (in finish order; :func:`scrubbed_records` sorts
    them).  A cell whose evaluation raises, or whose worker dies or is
    reaped, becomes a :class:`SkippedCell`; a ``ChaosCrash`` raised in
    this process still escapes, and Ctrl-C returns the partial grid.

    Args:
        benchmark: the benchmark every cell runs.
        grid: (flow, bits) pairs in table order; repeats run once.
        config_for: bits -> ``ExperimentConfig`` for that column.
        journal: where completed cells are committed (None = none).
        resume: replay cells already in ``journal``.
        progress: optional callable for per-cell status lines.
        budget: a :class:`~repro.runtime.budget.Budget` shared by every
            cell; it is process-local, so it forces ``workers`` to 1.
        workers: worker processes; None or 1 runs every cell inline.
        cache: a :class:`~repro.harness.cache.ResultCache`; workers
            share its directory.
        cell_wall_seconds: per-cell wall-clock budget when no ``budget``
            is given (an overrunning cell degrades to a partial row),
            and the reap deadline of a cell's worker.
        worker_chaos: per-cell chaos plans (cell key -> injections)
            activated around that cell's evaluation, in its worker when
            it has one: the deterministic way to kill one worker.

    Returns:
        The :class:`GridCells` of the run: one :class:`JournaledCell`
        per finished cell, computed, cache-served or replayed alike.

    Raises:
        ValueError: ``cell_wall_seconds`` is NaN, infinite or negative
            (before any cell runs).
        ReproError: ``resume`` is set and a line of ``journal`` before
            its last is not a JSON object (before any cell runs).
    """
    check_wall_seconds(cell_wall_seconds, "cell_wall_seconds")
    say = progress or (lambda message: None)
    if budget is not None:
        workers = 1  # a shared Budget cannot cross process boundaries
    chaos = worker_chaos or {}
    done = (journal.completed_cells()
            if journal is not None and resume else {})

    cells = GridCells()
    keys = list(dict.fromkeys((benchmark, flow, bits)
                              for flow, bits in grid))
    results: dict[CellKey, JournaledCell] = {}
    pending: list[CellKey] = []
    for key in keys:
        if key in done:
            say(f"resuming {_label(key)} from journal")
            results[key] = restore_cell(done[key])
            cells.replayed += 1
        else:
            pending.append(key)

    def tasks() -> Iterator[Task]:
        for key in pending:
            say(f"running {_label(key)} ...")
            yield (key, _grid_cell,
                   (key, config_for(key[2]), cache, budget,
                    cell_wall_seconds, chaos.get(key, ())),
                   cell_wall_seconds)

    unfinished = list(pending)
    runner: InlineRunner | ProcessRunner = (
        InlineRunner() if (workers or 1) == 1 else ProcessRunner(workers or 1))
    try:
        for finished in run_tasks(runner, tasks()):
            key = finished.key
            unfinished.remove(key)
            if finished.error:
                cells.skipped.append(SkippedCell(*key, finished.error))
                say(f"skipped {_label(key)}: {finished.error}")
                continue
            record, hit = finished.value
            if journal is not None:
                journal.append(record)
            results[key] = restore_cell(record)
            cells.computed += 1
            say(f"finished {_label(key)} "
                f"({'cache hit' if hit else 'computed'})")
    except KeyboardInterrupt:
        cells.interrupted = True
        cells.skipped.extend(SkippedCell(*key, "interrupted")
                             for key in unfinished)
        say("interrupted; returning partial grid "
            "(journaled cells are safe, --resume continues)")
    finally:
        runner.close()
    cells.extend(results[key] for key in keys if key in results)
    return cells

"""The chaos scenario matrix behind ``repro-hlts chaos``.

Each scenario injects one deterministic failure at a registered seam
(:mod:`repro.runtime.chaos`) into a real pipeline run and asserts the
degradation contract: the run terminates (no hang), the surviving
result is structurally valid (``design.validate()`` passes) and any
incompleteness is *explicitly* tagged (``degraded``,
``budget_exhausted``, skipped-candidate records) rather than silent.
``repro-hlts chaos`` runs the matrix and reports lint-style exit codes,
and CI runs it at 4 bits on every push.

Heavyweight pipeline imports are deliberately local to each scenario:
this module is imported by the CLI, which must stay cheap to load.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from .budget import Budget
from .chaos import (ACTION_CANCEL_BUDGET, ACTION_CORRUPT, ACTION_CRASH,
                    ACTION_RAISE, ChaosCrash, ChaosInjector, Injection)
from .checkpoint import Journal, run_journaled_grid, scrubbed_records


@dataclass(frozen=True)
class ScenarioOutcome:
    """Pass/fail verdict of one chaos scenario."""

    name: str
    ok: bool
    detail: str


def _check(checks: list[tuple[str, bool]]) -> tuple[bool, str]:
    failed = [label for label, passed in checks if not passed]
    if failed:
        return False, "failed: " + "; ".join(failed)
    return True, f"{len(checks)} checks passed"


def _quick_config(bits: int):
    """A deliberately small experiment config so scenarios stay fast."""
    from ..atpg import RandomPhaseConfig
    from ..harness import ExperimentConfig
    return ExperimentConfig(
        bits=bits, fault_fraction=0.25,
        random=RandomPhaseConfig(max_sequences=4, saturation=2,
                                 sequence_length=12),
        max_backtracks=16)


def _validates(design) -> bool:
    from ..errors import ReproError
    try:
        design.validate()
        return True
    except ReproError:
        return False


# ----------------------------------------------------------------------
# Scenarios
# ----------------------------------------------------------------------
def scenario_candidate_raise(benchmark: str, bits: int,
                             workdir: Path) -> tuple[bool, str]:
    """A merger candidate's evaluation raises: the loop must skip it,
    record the skip, and still converge to a valid design."""
    from ..bench import load
    from ..cost import CostModel
    from ..synth import run_ours
    with ChaosInjector(Injection("synth.candidate_eval", ACTION_RAISE,
                                 at_visit=1, count=3)):
        result = run_ours(load(benchmark),
                          cost_model=CostModel(bits=bits))
    return _check([
        ("injected failures recorded as skips", len(result.skipped) >= 3),
        ("skip reasons carry the exception",
         all("ChaosError" in s.reason for s in result.skipped)),
        ("merger loop continued past the failures", result.iterations >= 1),
        ("final design validates", _validates(result.design)),
    ])


def scenario_reschedule_corrupt(benchmark: str, bits: int,
                                workdir: Path) -> tuple[bool, str]:
    """A corrupted execution order reaches the rescheduler: the
    resulting ScheduleError must be survived as a skipped candidate."""
    from ..bench import load
    from ..cost import CostModel
    from ..synth import run_ours
    with ChaosInjector(Injection("synth.pre_reschedule", ACTION_CORRUPT,
                                 at_visit=1, count=2), seed=1):
        result = run_ours(load(benchmark),
                          cost_model=CostModel(bits=bits))
    return _check([
        ("corruption surfaced as skipped candidates",
         len(result.skipped) >= 1),
        ("skips carry the ScheduleError",
         all("ScheduleError" in s.reason for s in result.skipped)),
        ("merger loop continued", result.iterations >= 1),
        ("final design validates", _validates(result.design)),
    ])


def scenario_podem_budget_cancel(benchmark: str, bits: int,
                                 workdir: Path) -> tuple[bool, str]:
    """The shared budget drains mid-PODEM: the ATPG run must stop
    cleanly with every unattempted fault counted as aborted."""
    from ..atpg import ATPGConfig, RandomPhaseConfig, run_atpg
    from ..bench import load
    from ..gates import expand_to_gates
    from ..rtl import generate_rtl
    from ..synth import run_ours
    design = run_ours(load(benchmark)).design
    netlist = expand_to_gates(generate_rtl(design, bits))
    config = ATPGConfig(
        random=RandomPhaseConfig(max_sequences=2, saturation=1,
                                 sequence_length=8),
        max_frames=4, max_backtracks=16, fault_fraction=0.5)
    budget = Budget()
    with ChaosInjector(Injection("atpg.podem_step", ACTION_CANCEL_BUDGET,
                                 at_visit=5)):
        result = run_atpg(netlist, config, budget=budget)
    accounted = (result.detected + result.aborted_faults
                 + result.untestable_faults
                 + result.untestable_by_analysis)
    return _check([
        ("result tagged budget_exhausted", result.budget_exhausted),
        ("budget records the chaos cancellation",
         result.budget_reason == "chaos"),
        ("fault accounting closes (detected + aborted + untestable "
         "+ pruned)", accounted == result.total_faults),
        ("partial run aborted the unattempted faults",
         result.aborted_faults >= 1),
    ])


def scenario_synth_budget_starved(benchmark: str, bits: int,
                                  workdir: Path) -> tuple[bool, str]:
    """A starved synthesis budget: best-so-far design, degraded flag."""
    from ..bench import load
    from ..cost import CostModel
    from ..synth import run_ours
    budget = Budget(max_steps=1)
    result = run_ours(load(benchmark), cost_model=CostModel(bits=bits),
                      budget=budget)
    return _check([
        ("result flagged degraded", result.degraded),
        ("degradation names the budget",
         any("budget_exhausted" in r for r in result.degradation_reasons)),
        ("at most one merger applied under max_steps=1",
         result.iterations <= 1),
        ("best-so-far design validates", _validates(result.design)),
    ])


def scenario_journal_crash_resume(benchmark: str, bits: int,
                                  workdir: Path) -> tuple[bool, str]:
    """Kill a journaled grid between cell commits, resume it, and
    demand the resumed rows match an uninterrupted run byte-for-byte
    (modulo the wall-clock column)."""
    grid = [("camad", bits), ("ours", bits)]
    reference = Journal(workdir / "reference.jsonl")
    run_journaled_grid(benchmark, grid, _quick_config, journal=reference)

    crashed = Journal(workdir / "crashed.jsonl")
    died = False
    try:
        with ChaosInjector(Injection("journal.pre_write", ACTION_CRASH,
                                     at_visit=2)):
            run_journaled_grid(benchmark, grid, _quick_config,
                               journal=crashed)
    except ChaosCrash:
        died = True
    mid_records = crashed.records()  # must parse: never truncated
    resumed = run_journaled_grid(benchmark, grid, _quick_config,
                                 journal=crashed, resume=True)
    return _check([
        ("injected crash killed the run mid-grid", died),
        ("journal survived the crash as valid JSONL with one cell",
         len(mid_records) == 1),
        ("resume replayed the journaled cell", resumed.replayed == 1),
        ("resumed journal rows byte-identical to uninterrupted run "
         "(wall-clock masked)",
         scrubbed_records(crashed.records())
         == scrubbed_records(reference.records())),
    ])


def scenario_worker_crash(benchmark: str, bits: int,
                          workdir: Path) -> tuple[bool, str]:
    """A grid worker process dies mid-grid: the run must lose only
    that worker's cell (an explicit SkippedCell), journal the rest, and
    a resumed run must complete the grid recomputing only the lost
    cell."""
    grid = [("camad", bits), ("approach2", bits)]
    crash_key = (benchmark, "approach2", bits)
    journal = Journal(workdir / "journal.jsonl")
    cells = run_journaled_grid(
        benchmark, grid, _quick_config, journal=journal, workers=2,
        worker_chaos={crash_key: (Injection("harness.worker",
                                            ACTION_CRASH),)})
    resumed = run_journaled_grid(benchmark, grid, _quick_config,
                                 journal=journal, resume=True, workers=2)
    return _check([
        ("crashed worker lost exactly its own cell",
         [s.key for s in cells.skipped] == [crash_key]),
        ("skip reason names the injected crash",
         "ChaosCrash" in cells.skipped[0].reason
         if cells.skipped else False),
        ("surviving cell journaled by the parent",
         len(journal.completed_cells()) >= 1),
        ("partial grid rendered the surviving cell", len(cells) == 1),
        ("resume replayed the survivor and recomputed only the loss",
         resumed.replayed == 1 and resumed.computed == 1
         and not resumed.skipped),
        ("resumed grid is complete", len(resumed) == len(grid)),
    ])


#: The registered matrix, in execution order.
SCENARIOS: list[tuple[str, Callable[[str, int, Path],
                                    tuple[bool, str]], str]] = [
    ("candidate-raise", scenario_candidate_raise,
     "merger candidate evaluation raises; loop skips and continues"),
    ("reschedule-corrupt", scenario_reschedule_corrupt,
     "corrupted execution order; ScheduleError survived as a skip"),
    ("podem-budget-cancel", scenario_podem_budget_cancel,
     "budget drained mid-PODEM; partial ATPG result, faults aborted"),
    ("synth-budget-starved", scenario_synth_budget_starved,
     "starved synthesis budget; degraded best-so-far design"),
    ("journal-crash-resume", scenario_journal_crash_resume,
     "crash between journal commits; resume matches uninterrupted run"),
    ("worker-crash", scenario_worker_crash,
     "grid worker process dies; partial grid + resume completes"),
]


def scenario_names() -> list[str]:
    """The names of every registered scenario."""
    return [name for name, _, _ in SCENARIOS]


def run_scenarios(names: list[str] | None = None, benchmark: str = "ex",
                  bits: int = 4,
                  workdir: str | Path | None = None) -> list[ScenarioOutcome]:
    """Run (a subset of) the chaos matrix; one outcome per scenario.

    A scenario that raises is itself a failure — the whole point is
    that injected faults must *not* escape the degradation machinery.
    """
    selected = set(names) if names else None
    unknown = (selected or set()) - set(scenario_names())
    if unknown:
        raise KeyError(f"unknown chaos scenario(s): {sorted(unknown)}; "
                       f"registered: {scenario_names()}")
    base = Path(workdir) if workdir else Path(tempfile.mkdtemp(
        prefix="repro-chaos-"))
    outcomes = []
    for name, func, _description in SCENARIOS:
        if selected is not None and name not in selected:
            continue
        scenario_dir = base / name
        scenario_dir.mkdir(parents=True, exist_ok=True)
        try:
            ok, detail = func(benchmark, bits, scenario_dir)
        except Exception as exc:  # noqa: BLE001 - escaping = failing
            ok, detail = False, (f"escaped the degradation barrier: "
                                 f"{type(exc).__name__}: {exc}")
        outcomes.append(ScenarioOutcome(name, ok, detail))
    return outcomes

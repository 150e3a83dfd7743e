"""repro.runtime — budgets, graceful degradation and chaos testing.

The hardening layer of the pipeline: :class:`Budget` bounds every
long-running kernel (PODEM, random TPG, fault simulation, the merger
loop) with wall-clock deadlines, step ceilings and cooperative
cancellation; :mod:`~repro.runtime.atomic` makes every
result-file write crash-safe; :class:`Journal` checkpoints experiment
grids so crashed runs resume instead of restarting; and
:mod:`~repro.runtime.chaos` injects deterministic failures at
registered seams to prove each layer degrades to a valid partial
result (``repro-hlts chaos``).
"""

from .atomic import atomic_write_text
from .budget import (Budget, REASON_CANCELLED, REASON_DEADLINE,
                     REASON_STEPS)
from .chaos import (ACTION_CANCEL_BUDGET, ACTION_CORRUPT, ACTION_CRASH,
                    ACTION_RAISE, SEAMS, ChaosCrash, ChaosError,
                    ChaosInjector, Injection, active_injector, chaos_point,
                    clear_injector)
from .checkpoint import (Journal, JournaledCell, cell_record, record_key,
                         restore_cell, run_journaled_grid, scrubbed_records)
from .scenarios import ScenarioOutcome, run_scenarios, scenario_names

__all__ = [
    "ACTION_CANCEL_BUDGET", "ACTION_CORRUPT", "ACTION_CRASH",
    "ACTION_RAISE",
    "Budget",
    "ChaosCrash", "ChaosError", "ChaosInjector",
    "Injection",
    "Journal", "JournaledCell",
    "REASON_CANCELLED", "REASON_DEADLINE", "REASON_STEPS",
    "SEAMS",
    "ScenarioOutcome",
    "active_injector",
    "atomic_write_text",
    "cell_record",
    "chaos_point",
    "clear_injector",
    "record_key",
    "restore_cell",
    "run_journaled_grid",
    "run_scenarios",
    "scenario_names",
    "scrubbed_records",
]

"""ATPG outcome containers."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class ATPGResult:
    """Everything one ATPG run reports.

    The paper's three test columns map to:

    * ``fault_coverage`` — "Fault coverage";
    * ``tg_effort`` (implications + weighted backtracks + random-phase
      simulation work) and ``tg_seconds`` (wall clock) — "Test
      generation time" (1998 CPU seconds are not reproducible, so the
      effort metric is primary and seconds are informational);
    * ``test_cycles`` — "Test generated cycle": clock cycles needed to
      apply the final test set.
    """

    total_faults: int = 0
    detected_random: int = 0
    detected_deterministic: int = 0
    aborted_faults: int = 0
    untestable_faults: int = 0
    #: Faults proved untestable by static analysis (sequential ternary
    #: constant propagation) before any pattern was simulated; they
    #: stay in ``total_faults`` but never consume random or PODEM
    #: budget.  Disjoint from ``untestable_faults``, which PODEM proves
    #: the expensive way.
    untestable_by_analysis: int = 0
    #: PODEM successes the fault simulator did not confirm (a modelling
    #: divergence between the unrolled model and the simulator).  Also
    #: counted in ``aborted_faults``; expected to be zero.
    divergent_faults: int = 0
    random_cycles: int = 0
    deterministic_cycles: int = 0
    random_effort: int = 0
    deterministic_effort: int = 0
    tg_seconds: float = 0.0
    gate_count: int = 0
    dff_count: int = 0
    #: True when a shared :class:`~repro.runtime.budget.Budget` ran out
    #: mid-run; the counts above then describe a well-formed *partial*
    #: run (unattempted faults are folded into ``aborted_faults``).
    budget_exhausted: bool = False
    #: Why the budget exhausted (``deadline``/``steps``/``cancelled``).
    budget_reason: str = ""

    @property
    def detected(self) -> int:
        return self.detected_random + self.detected_deterministic

    @property
    def fault_coverage(self) -> float:
        """Detected fraction of the fault universe, in percent."""
        if not self.total_faults:
            return 0.0
        return 100.0 * self.detected / self.total_faults

    @property
    def test_cycles(self) -> int:
        """Total clock cycles of the generated test set."""
        return self.random_cycles + self.deterministic_cycles

    @property
    def tg_effort(self) -> int:
        """Scalar test-generation effort."""
        return self.random_effort + self.deterministic_effort

    def summary(self) -> dict[str, float]:
        """Flat dict used by tables and EXPERIMENTS.md."""
        return {
            "faults": self.total_faults,
            "coverage_pct": round(self.fault_coverage, 2),
            "tg_effort": self.tg_effort,
            "tg_seconds": round(self.tg_seconds, 3),
            "test_cycles": self.test_cycles,
            "gates": self.gate_count,
            "pruned_by_analysis": self.untestable_by_analysis,
            "budget_exhausted": self.budget_exhausted,
        }

"""Schedule legality: precedence and merger-imposed constraints.

Two families of constraints govern a schedule:

* *precedence*: every dependence edge of the DFG must be respected
  (flow/output edges need the consumer at least one step after the
  producer, anti edges allow sharing a step);
* *binding*: operations sharing a module occupy distinct steps, and
  variables sharing a register have disjoint lifetimes (checked by
  :func:`repro.alloc.binding.validate_binding`).

Mergers add binding constraints; rescheduling discharges them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dfg import DFG
from ..dfg.analysis import edge_latency
from ..dfg.graph import DependenceEdge
from ..errors import ScheduleError
from .schedule import assert_complete


@dataclass(frozen=True)
class Violation:
    """One violated precedence edge."""

    edge: DependenceEdge
    src_step: int
    dst_step: int
    required_gap: int

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (f"{self.edge.kind} {self.edge.src}@{self.src_step} -> "
                f"{self.edge.dst}@{self.dst_step} needs gap "
                f">= {self.required_gap}")


def precedence_violations(dfg: DFG, steps: dict[str, int]
                          ) -> list[Violation]:
    """All dependence edges violated by ``steps``."""
    violations = []
    for edge in dfg.edges():
        gap = edge_latency(edge)
        if steps[edge.dst] - steps[edge.src] < gap:
            violations.append(Violation(edge, steps[edge.src],
                                        steps[edge.dst], gap))
    return violations


def check_precedence(dfg: DFG, steps: dict[str, int]) -> None:
    """Raise :class:`ScheduleError` when any dependence is violated."""
    assert_complete(dfg, steps)
    violations = precedence_violations(dfg, steps)
    if violations:
        detail = "; ".join(str(v) for v in violations[:5])
        raise ScheduleError(f"{dfg.name}: {len(violations)} precedence "
                            f"violations: {detail}")

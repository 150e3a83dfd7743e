"""Schedule helpers.

A schedule is a plain ``dict[str, int]`` mapping every operation id to
its control step (counted from 0).  These helpers keep schedules tidy:
compaction removes empty steps, and grouping supports renderers and
allocators.
"""

from __future__ import annotations

from ..dfg import DFG


def schedule_length(steps: dict[str, int],
                    delays: dict[str, int] | None = None) -> int:
    """Number of control steps the schedule occupies."""
    if not steps:
        return 0
    end = 0
    for op_id, start in steps.items():
        delay = 1 if delays is None else delays.get(op_id, 1)
        end = max(end, start + delay)
    return end


def ops_by_step(steps: dict[str, int]) -> dict[int, list[str]]:
    """Group op ids per control step (ops sorted within a step)."""
    grouping: dict[int, list[str]] = {}
    for op_id in sorted(steps):
        grouping.setdefault(steps[op_id], []).append(op_id)
    return dict(sorted(grouping.items()))


def compact(steps: dict[str, int]) -> dict[str, int]:
    """Renumber steps to remove gaps and start from 0.

    Rescheduling can leave empty control steps behind; compaction is the
    inverse of the paper's dummy-step insertion and never violates any
    precedence or binding constraint (relative order is preserved and
    distinct steps stay distinct).
    """
    if not steps:
        return {}
    used = sorted(set(steps.values()))
    renumber = {old: new for new, old in enumerate(used)}
    return {op_id: renumber[s] for op_id, s in steps.items()}


def assert_complete(dfg: DFG, steps: dict[str, int]) -> None:
    """Raise ScheduleError unless every operation is scheduled."""
    from ..errors import ScheduleError

    missing = set(dfg.operations) - set(steps)
    if missing:
        raise ScheduleError(f"{dfg.name}: unscheduled operations "
                            f"{sorted(missing)}")
    negative = {o: s for o, s in steps.items() if s < 0}
    if negative:
        raise ScheduleError(f"{dfg.name}: negative steps {negative}")

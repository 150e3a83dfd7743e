"""Variable lifetime analysis (step 13 of Algorithm 1 in the paper).

Lifetime semantics
------------------
A register is written at the clock edge that *ends* a control step and
read combinationally *during* a step.  Hence:

* a computed value born in step ``t`` occupies its register during steps
  ``t+1, t+2, ...`` — interval ``(t, death]``;
* a primary-input variable is loaded from its port at the end of the
  step *before* its first use, so its birth is ``first_use - 1``;
* a primary-output value must survive one step past its final
  definition so it can be driven to the port;
* a multiply-defined variable (``u1 = u - e; u1 = u1 - f``) occupies one
  register for the union of its value intervals, i.e. a single merged
  interval.

Two variables may share a register exactly when their intervals are
disjoint; intervals ``(b1, d1]`` and ``(b2, d2]`` overlap iff
``b1 < d2 and b2 < d1``.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ScheduleError
from .graph import DFG


@dataclass(frozen=True)
class Lifetime:
    """Half-open occupation interval ``(birth, death]`` of a variable."""

    variable: str
    birth: int
    death: int

    def overlaps(self, other: "Lifetime") -> bool:
        """True when the two variables cannot share a register."""
        return self.birth < other.death and other.birth < self.death

    @property
    def span(self) -> int:
        """Number of steps the variable occupies a register."""
        return max(0, self.death - self.birth)

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return f"{self.variable}:({self.birth},{self.death}]"


class DefUse:
    """Each register variable's defining and reading ops, read once.

    :func:`variable_lifetimes` derives one schedule's lifetimes from it;
    a caller that prices many schedules of one DFG keeps one instead of
    re-reading the DFG per schedule.
    """

    def __init__(self, dfg: DFG) -> None:
        #: (name, is_input, is_output, def ops, use ops) of every
        #: register-needing variable that some op defines or reads, in
        #: the DFG's variable order; the ops in program order.
        self.rows: list[tuple[str, bool, bool, tuple[str, ...],
                              tuple[str, ...]]] = []
        for name, var in dfg.variables.items():
            if not var.needs_register():
                continue
            defs = tuple(dfg.defs_of(name))
            uses = tuple(dfg.uses_of(name))
            if defs or uses:
                self.rows.append((name, var.is_input, var.is_output, defs,
                                  uses))

    def lifetimes(self, steps: dict[str, int]) -> dict[str, Lifetime]:
        """The lifetimes under ``steps``, which must schedule every op."""
        lifetimes: dict[str, Lifetime] = {}
        step = steps.__getitem__
        for name, is_input, is_output, defs, uses in self.rows:
            def_steps = list(map(step, defs))
            use_steps = list(map(step, uses))
            if is_input and use_steps:
                birth = min(use_steps) - 1
            elif def_steps:
                birth = min(def_steps)
            else:
                # Used but never defined and not an input: validator
                # forbids this, but stay defensive.
                birth = min(use_steps) - 1
            death = birth
            if use_steps:
                death = max(death, max(use_steps))
            if def_steps:
                # A later redefinition keeps the register occupied
                # through the defining step (the old value is still
                # live inside it).
                death = max(death, max(def_steps))
            if is_output and def_steps:
                death = max(death, max(def_steps) + 1)
            lifetimes[name] = Lifetime(name, birth, death)
        return lifetimes


def variable_lifetimes(dfg: DFG, steps: dict[str, int]) -> dict[str, Lifetime]:
    """Compute the lifetime of every register-needing variable.

    Args:
        dfg: the data-flow graph.
        steps: a complete schedule mapping op_id to control step.

    Returns:
        Mapping from variable name to its :class:`Lifetime`.

    Raises:
        ScheduleError: when ``steps`` does not cover every operation.
    """
    missing = set(dfg.operations) - set(steps)
    if missing:
        raise ScheduleError(f"{dfg.name}: unscheduled operations "
                            f"{sorted(missing)}")
    return DefUse(dfg).lifetimes(steps)


def max_overlap(lifetimes: dict[str, Lifetime]) -> int:
    """Maximum number of simultaneously live variables.

    This is the lower bound on register count for the given schedule.
    """
    events: list[tuple[int, int]] = []
    for lt in lifetimes.values():
        if lt.span == 0:
            continue
        events.append((lt.birth, 1))
        events.append((lt.death, -1))
    events.sort()
    live = best = 0
    for _, delta in events:
        live += delta
        best = max(best, live)
    return best

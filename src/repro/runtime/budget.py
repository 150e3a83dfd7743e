"""Cooperative effort budgets for the long-running kernels.

The paper's headline metric is test-generation effort under *bounded*
search (PODEM backtrack limits, §5) — the same discipline every other
long loop in the pipeline should obey.  A :class:`Budget` carries a
wall-clock deadline, an abstract step ceiling and a cooperative
cancellation flag; the PODEM search, the random test-generation phase,
fault simulation and the merger loop all :meth:`charge` it as they
work and stop *cleanly* once it is exhausted, returning a well-formed
partial result tagged with ``budget_exhausted`` provenance instead of
hanging or raising.

Budgets are sticky: once exhausted (for any reason) they stay
exhausted, so a budget threaded through several stages shuts the whole
pipeline down the moment any stage drains it.  Wall-clock checks are
amortised — the monotonic clock is read once every
:data:`CLOCK_CHECK_INTERVAL` charged steps — so charging is cheap
enough for per-iteration use inside the PODEM decision loop.
"""

from __future__ import annotations

import math
import time
from typing import Callable, Optional

#: Steps between reads of the monotonic clock while charging.
CLOCK_CHECK_INTERVAL = 256

#: Exhaustion reasons, also used as provenance tags.
REASON_DEADLINE = "deadline"
REASON_STEPS = "steps"
REASON_CANCELLED = "cancelled"


def check_wall_seconds(wall_seconds: float | None,
                       what: str = "wall_seconds") -> None:
    """Reject a wall-clock allowance that is not a finite number >= 0.

    A NaN allowance would never run out (every comparison with NaN is
    false) and a negative one would run out at once.

    Raises:
        ValueError: naming ``what`` and the rejected value.
    """
    if wall_seconds is not None and not (math.isfinite(wall_seconds)
                                         and wall_seconds >= 0):
        raise ValueError(f"{what} must be a finite number >= 0, "
                         f"got {wall_seconds!r}")


class Budget:
    """A wall-clock / step budget shared by cooperating loops.

    Attributes:
        wall_seconds: wall-clock allowance, or None for unlimited time.
        max_steps: abstract step ceiling, or None for unlimited steps.
            Steps are whatever unit the charging loop finds natural
            (PODEM decisions, simulated cycles, merger iterations...).

    Raises:
        ValueError: on construction, when ``wall_seconds`` is not a
            finite number >= 0 or ``max_steps`` is below 0.
    """

    __slots__ = ("wall_seconds", "max_steps", "steps", "_clock",
                 "_deadline", "_reason", "_next_clock_check")

    def __init__(self, wall_seconds: float | None = None,
                 max_steps: int | None = None, *,
                 clock: Callable[[], float] = time.monotonic) -> None:
        check_wall_seconds(wall_seconds)
        if max_steps is not None and max_steps < 0:
            raise ValueError(f"max_steps must be >= 0, got {max_steps!r}")
        self.wall_seconds = wall_seconds
        self.max_steps = max_steps
        self.steps = 0
        self._clock = clock
        self._deadline = (None if wall_seconds is None
                          else clock() + wall_seconds)
        self._reason: Optional[str] = None
        self._next_clock_check = 0

    # ------------------------------------------------------------------
    def charge(self, steps: int = 1) -> bool:
        """Record ``steps`` units of work; True while within budget."""
        if self._reason is not None:
            return False
        self.steps += steps
        if self.max_steps is not None and self.steps > self.max_steps:
            self._reason = REASON_STEPS
            return False
        if self._deadline is not None and self.steps >= self._next_clock_check:
            self._next_clock_check = self.steps + CLOCK_CHECK_INTERVAL
            if self._clock() > self._deadline:
                self._reason = REASON_DEADLINE
                return False
        return True

    def exhausted(self) -> bool:
        """True once the budget has run out (sticky).

        Unlike :meth:`charge` this always consults the clock, so it is
        the right check at stage boundaries (between faults, between
        merger iterations) where precision matters more than speed.
        """
        if self._reason is not None:
            return True
        if self.max_steps is not None and self.steps > self.max_steps:
            self._reason = REASON_STEPS
        elif self._deadline is not None and self._clock() > self._deadline:
            self._reason = REASON_DEADLINE
        return self._reason is not None

    def cancel(self, reason: str = REASON_CANCELLED) -> None:
        """Cooperatively stop every loop sharing this budget."""
        if self._reason is None:
            self._reason = reason

    # ------------------------------------------------------------------
    @property
    def reason(self) -> Optional[str]:
        """Why the budget exhausted (None while still within budget)."""
        return self._reason

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = self._reason or "ok"
        return (f"Budget(wall_seconds={self.wall_seconds}, "
                f"max_steps={self.max_steps}, steps={self.steps}, {state})")

"""Deterministic chaos injection at registered pipeline seams.

The pipeline claims to degrade gracefully: a misbehaving merger
candidate is skipped, an exhausted budget yields a tagged partial
result, a killed run resumes from its journal.  This module makes those
claims testable.  Production code calls :func:`chaos_point` at a small
set of *registered seams*; normally that is a no-op, but under an
active :class:`ChaosInjector` (a context manager, seeded and counted,
so every run is reproducible) a seam visit can raise, corrupt its
payload or drain a budget — and the scenario matrix
(:mod:`repro.runtime.scenarios`, ``repro-hlts chaos``) asserts that
every layer still ends with a structurally valid, explicitly-degraded
result and lint-style exit codes.

Seams (see DESIGN.md §11):

====================== ==================================================
``synth.candidate_eval``  inside Algorithm 1's per-candidate barrier,
                          just before a merger candidate is costed
``synth.pre_reschedule``  the execution/lifetime order handed to
                          :func:`repro.sched.resched.reschedule`
``atpg.podem_step``       top of the PODEM decision loop (payload: the
                          active :class:`~repro.runtime.budget.Budget`)
``journal.pre_write``     immediately before a journal record commits
``harness.worker``        top of one grid cell's evaluation, inline or
                          in its worker process (payload: the cell's
                          (benchmark, flow, bits) key)
====================== ==================================================
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from ..errors import ReproError
from .budget import Budget

#: Every seam production code may visit; injections must name one.
SEAMS = frozenset({
    "synth.candidate_eval",
    "synth.pre_reschedule",
    "atpg.podem_step",
    "journal.pre_write",
    "harness.worker",
})

#: Injection actions.
ACTION_RAISE = "raise"          # raise ChaosError (a ReproError)
ACTION_CRASH = "crash"          # raise ChaosCrash (simulated process death)
ACTION_CANCEL_BUDGET = "cancel_budget"  # payload Budget -> cancel()
ACTION_CORRUPT = "corrupt"      # payload list -> deterministic corruption

_ACTIONS = frozenset({ACTION_RAISE, ACTION_CRASH, ACTION_CANCEL_BUDGET,
                      ACTION_CORRUPT})


class ChaosError(ReproError):
    """A deterministic injected failure (behaves like any library error)."""


class ChaosCrash(RuntimeError):
    """A simulated process death.

    Deliberately *not* a :class:`ReproError`: recovery barriers that
    catch library errors must not swallow it — only the chaos harness
    (and the journal-resume machinery it exercises) handles it.
    """


@dataclass(frozen=True)
class Injection:
    """One planned failure: fire ``action`` at the ``at_visit``-th visit
    of ``seam`` (1-based), for ``count`` consecutive visits."""

    seam: str
    action: str
    at_visit: int = 1
    count: int = 1

    def __post_init__(self) -> None:
        if self.seam not in SEAMS:
            raise ValueError(f"unknown chaos seam {self.seam!r}; "
                             f"registered: {sorted(SEAMS)}")
        if self.action not in _ACTIONS:
            raise ValueError(f"unknown chaos action {self.action!r}")
        if self.at_visit < 1 or self.count < 1:
            raise ValueError("at_visit and count must be >= 1")

    def fires_at(self, visit: int) -> bool:
        return self.at_visit <= visit < self.at_visit + self.count


class ChaosInjector:
    """Activates a set of :class:`Injection` plans (context manager).

    Visits are counted per seam, so the same plan replays identically;
    ``seed`` parameterises payload corruption, keeping even the
    corrupted values deterministic.
    """

    def __init__(self, *injections: Injection, seed: int = 0) -> None:
        self.injections = injections
        self.seed = seed
        self.visits: dict[str, int] = {}
        self.fired: list[tuple[str, str, int]] = []

    # ------------------------------------------------------------------
    def __enter__(self) -> "ChaosInjector":
        global _ACTIVE
        if _ACTIVE is not None:
            raise RuntimeError("chaos injectors do not nest")
        _ACTIVE = self
        return self

    def __exit__(self, *exc_info: object) -> None:
        global _ACTIVE
        _ACTIVE = None

    # ------------------------------------------------------------------
    def visit(self, seam: str, payload: Any) -> Any:
        count = self.visits.get(seam, 0) + 1
        self.visits[seam] = count
        for injection in self.injections:
            if injection.seam != seam or not injection.fires_at(count):
                continue
            self.fired.append((seam, injection.action, count))
            payload = self._apply(injection, seam, count, payload)
        return payload

    def _apply(self, injection: Injection, seam: str, count: int,
               payload: Any) -> Any:
        if injection.action == ACTION_RAISE:
            raise ChaosError(f"injected failure at {seam} (visit {count})")
        if injection.action == ACTION_CRASH:
            raise ChaosCrash(f"injected crash at {seam} (visit {count})")
        if injection.action == ACTION_CANCEL_BUDGET:
            if isinstance(payload, Budget):
                payload.cancel("chaos")
            return payload
        # ACTION_CORRUPT: deterministic, seed-driven list corruption —
        # duplicating one element makes an execution/lifetime order stop
        # covering its ops, the canonical "merger candidate misbehaves".
        if isinstance(payload, list) and payload:
            index = self.seed % len(payload)
            return payload + [payload[index]]
        return payload


_ACTIVE: Optional[ChaosInjector] = None


def chaos_point(seam: str, payload: Any = None) -> Any:
    """Mark a registered seam; a no-op unless an injector is active.

    Returns the (possibly corrupted) payload so call sites can write
    ``order = chaos_point("synth.pre_reschedule", order)``.
    """
    if _ACTIVE is None:
        return payload
    if seam not in SEAMS:
        raise ValueError(f"chaos_point called with unregistered seam "
                         f"{seam!r}")
    return _ACTIVE.visit(seam, payload)


def active_injector() -> Optional[ChaosInjector]:
    """The currently-active injector, if any (used by tests)."""
    return _ACTIVE


def clear_injector() -> None:
    """Forcibly deactivate any active injector.

    For forked worker processes only: a ``fork`` start method copies
    the parent's module state, including an injector the parent entered
    — a worker must not replay the parent's chaos plan on its own seam
    counters, so every :mod:`repro.runtime.worker` process clears the
    inherited injector first; per-cell plans are activated explicitly.
    """
    global _ACTIVE
    _ACTIVE = None

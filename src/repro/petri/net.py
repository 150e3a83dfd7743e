"""Timed Petri nets with restricted firing rules (the ETPN control part).

Following Peng & Kuchcinski (1994), the control part of an ETPN is a
*safe* timed Petri net: each place holds at most one token, a marked
place keeps its token for the place's delay (one control step for
ordinary control places, zero for dummy join places), and transitions
fire instantaneously.  A transition may be *guarded* by a condition
signal produced by the data path (e.g. the ``x1 < a`` comparison in
Diffeq); guarded transitions model loops and branches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import PetriNetError


@dataclass(frozen=True)
class Guard:
    """A transition guard: a data-path condition, possibly negated."""

    condition: str
    negated: bool = False

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{'!' if self.negated else ''}{self.condition}"

    def complement(self) -> "Guard":
        """The same condition with the opposite polarity."""
        return Guard(self.condition, not self.negated)


@dataclass
class Place:
    """A control place.

    Attributes:
        place_id: unique identifier (e.g. ``"S3"`` for control step 3).
        delay: how many time units a token rests here before enabling
            output transitions.  Control-step places have delay 1;
            structural (fork/join/dummy) places have delay 0.
        label: free-form annotation shown by renderers.
    """

    place_id: str
    delay: int = 1
    label: str = ""


@dataclass
class Transition:
    """A transition consuming tokens from ``inputs``, producing to ``outputs``."""

    trans_id: str
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    guard: Optional[Guard] = None


class PetriNet:
    """A safe timed Petri net with an initial marking."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.places: dict[str, Place] = {}
        self.transitions: dict[str, Transition] = {}
        self.initial_marking: frozenset[str] = frozenset()
        self.final_places: frozenset[str] = frozenset()

    # ------------------------------------------------------------------
    def add_place(self, place_id: str, delay: int = 1, label: str = "") -> Place:
        """Create and register a place; ids must be unique."""
        if place_id in self.places:
            raise PetriNetError(f"{self.name}: duplicate place {place_id!r}")
        if delay < 0:
            raise PetriNetError(f"{self.name}: negative delay on {place_id!r}")
        place = Place(place_id, delay, label)
        self.places[place_id] = place
        return place

    def add_transition(self, trans_id: str, inputs: list[str],
                       outputs: list[str],
                       guard: Optional[Guard] = None) -> Transition:
        """Create and register a transition between existing places."""
        if trans_id in self.transitions:
            raise PetriNetError(f"{self.name}: duplicate transition "
                                f"{trans_id!r}")
        for pid in list(inputs) + list(outputs):
            if pid not in self.places:
                raise PetriNetError(f"{self.name}: transition {trans_id!r} "
                                    f"references unknown place {pid!r}")
        if not inputs:
            raise PetriNetError(f"{self.name}: transition {trans_id!r} has "
                                f"no input places")
        transition = Transition(trans_id, tuple(inputs), tuple(outputs), guard)
        self.transitions[trans_id] = transition
        return transition

    def set_initial(self, *place_ids: str) -> None:
        """Define the initial marking (one token in each listed place)."""
        for pid in place_ids:
            if pid not in self.places:
                raise PetriNetError(f"{self.name}: unknown initial place "
                                    f"{pid!r}")
        self.initial_marking = frozenset(place_ids)

    def set_final(self, *place_ids: str) -> None:
        """Mark places whose marking means the computation has finished."""
        for pid in place_ids:
            if pid not in self.places:
                raise PetriNetError(f"{self.name}: unknown final place "
                                    f"{pid!r}")
        self.final_places = frozenset(place_ids)

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity: initial marking set, non-empty net,
        every transition sourced (the error rules of the lint layer,
        ``NET001``/``NET002``/``NET006``; its warning rules do not run).

        Raises:
            PetriNetError: listing every violated structural rule.
        """
        from ..lint.registry import LintContext, check_layer
        check_layer("petri", LintContext(name=self.name, net=self),
                    PetriNetError)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"PetriNet({self.name!r}, {len(self.places)} places, "
                f"{len(self.transitions)} transitions)")

"""Structural certificates: polynomial safety/liveness verdicts.

:func:`structural_certificate` condenses the net's integer linear
algebra into one checkable object:

* **safety** — a place covered by a P-invariant whose initial token
  weight is at most 1 can never hold two tokens; if every place is
  covered (or statically unreachable) the net is *proved* safe without
  enumerating a single marking;
* **conservation / structural boundedness** — coverage by the minimal
  P-semiflow basis decides whether a strictly positive token-weighting
  exists (conservation) and bounds every covered place;
* **dead transitions** — a transition whose input bag outweighs an
  invariant's constant token count (or whose inputs the token-flow
  closure can never fill) is statically unfireable;
* **deadlock-freedom** — Commoner's siphon/trap condition applied to
  the *short-circuited* net (final places recycled into the initial
  marking), so the intended final marking does not count as a
  deadlock: *proved* means every reachable dead marking of the
  original net is a final marking.

Each verdict is three-valued (:class:`Verdict`): the structure either
*proves* the property, *refutes* it, or is *inconclusive* — structural
conditions are sufficient, not necessary, and the enumerative tier
(:class:`~repro.petri.reachability.ReachabilityGraph`) remains the
fallback for inconclusive cases.  :meth:`StructuralCertificate.check`
re-verifies every witness against the net with plain integer
arithmetic, independently of the Farkas/DFS engines that produced it.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field
from typing import Optional

from ...petri.net import PetriNet
from ...petri.reachability import token_flow_closure
from ...runtime.budget import Budget
from .incidence import IncidenceMatrix
from .invariants import DEFAULT_MAX_ROWS, p_semiflows, t_semiflows
from .siphons import (DEFAULT_MAX_NODES, DEFAULT_MAX_SIPHONS, is_siphon,
                      is_trap, maximal_trap, minimal_siphons)


class Verdict(enum.Enum):
    """Outcome of one structural property check."""

    PROVED = "proved"
    REFUTED = "refuted"
    INCONCLUSIVE = "inconclusive"

    @property
    def decided(self) -> bool:
        """True when the structure settled the property either way."""
        return self is not Verdict.INCONCLUSIVE

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Invariant:
    """One P- or T-semiflow with named components.

    Attributes:
        kind: ``"P"`` (place weights) or ``"T"`` (firing counts).
        weights: ``(id, weight)`` pairs, sorted by id, weights > 0.
        tokens: the conserved quantity ``y . M0`` (P-invariants only).
    """

    kind: str
    weights: tuple[tuple[str, int], ...]
    tokens: int = 0

    @property
    def support(self) -> tuple[str, ...]:
        """The ids with non-zero weight."""
        return tuple(ident for ident, _ in self.weights)

    def weight(self, ident: str) -> int:
        """The component for ``ident`` (0 outside the support)."""
        for name, value in self.weights:
            if name == ident:
                return value
        return 0

    @property
    def unit(self) -> bool:
        """True for P-invariants enforcing at most one token overall."""
        return self.kind == "P" and self.tokens <= 1

    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (deterministic ordering)."""
        return {"kind": self.kind,
                "weights": {ident: value for ident, value in self.weights},
                "tokens": self.tokens}

    def __str__(self) -> str:  # pragma: no cover - debug helper
        terms = " + ".join(f"{w}*{i}" if w != 1 else i
                           for i, w in self.weights)
        return f"{terms} = {self.tokens}" if self.kind == "P" else terms


@dataclass(frozen=True)
class SiphonWitness:
    """One minimal siphon of the short-circuited net with its trap."""

    places: tuple[str, ...]
    trap: tuple[str, ...]
    trap_marked: bool

    @property
    def controlled(self) -> bool:
        """True when the siphon contains an initially-marked trap."""
        return bool(self.trap) and self.trap_marked

    def to_dict(self) -> dict[str, object]:
        return {"places": list(self.places), "trap": list(self.trap),
                "trap_marked": self.trap_marked}


@dataclass
class StructuralCertificate:
    """Enumeration-free safety/liveness evidence for one control part.

    All sequences are sorted, so rendering a certificate (text or JSON)
    is byte-stable.  ``*_complete`` flags report whether the underlying
    bounded computation finished; an incomplete basis can still prove
    properties (its witnesses are genuine) but never refute them.
    """

    net_name: str
    places: tuple[str, ...]
    transitions: tuple[str, ...]
    p_invariants: tuple[Invariant, ...]
    t_invariants: tuple[Invariant, ...]
    siphons: tuple[SiphonWitness, ...]
    p_complete: bool
    t_complete: bool
    siphons_complete: bool
    safe: Verdict
    uncovered_places: tuple[str, ...]
    bounded: Verdict
    unbounded_places: tuple[str, ...]
    conservative: Verdict
    deadlock_free: Verdict
    uncontrolled_siphons: tuple[tuple[str, ...], ...]
    dead_transitions: tuple[str, ...]
    invariant_dead: tuple[str, ...]
    structurally_reachable: tuple[str, ...]
    structurally_fireable: tuple[str, ...]
    ordinary: bool
    elapsed_seconds: float = field(default=0.0, compare=False)

    # ------------------------------------------------------------------
    @property
    def unit_invariants(self) -> tuple[Invariant, ...]:
        """P-invariants whose conserved token count is at most 1."""
        return tuple(inv for inv in self.p_invariants if inv.unit)

    def covers(self, place: str) -> bool:
        """Is ``place`` covered by a 1-token P-invariant (proved safe)?"""
        return place not in self.uncovered_places and place in self.places

    def bound(self, place: str) -> Optional[int]:
        """Structural token bound for ``place`` (None when uncovered)."""
        if place not in self.structurally_reachable:
            return 0
        best: Optional[int] = None
        for inv in self.p_invariants:
            weight = inv.weight(place)
            if weight > 0:
                bound = inv.tokens // weight
                best = bound if best is None else min(best, bound)
        return best

    def mutually_exclusive(self, p: str, q: str) -> bool:
        """Can the structure rule out ``p`` and ``q`` being co-marked?

        True when some 1-token P-invariant weights both places (their
        weighted sum would exceed the conserved constant), or when
        either place is statically unreachable.  A False answer means
        "not excluded", not "co-markable".
        """
        if p == q:
            return False
        reachable = set(self.structurally_reachable)
        if p not in reachable or q not in reachable:
            return True
        return any(inv.weight(p) > 0 and inv.weight(q) > 0
                   for inv in self.unit_invariants)

    # ------------------------------------------------------------------
    def check(self, net: PetriNet) -> list[str]:
        """Re-verify every witness against ``net``; [] when sound.

        The check is independent of the engines that built the
        certificate: invariants are re-multiplied against the incidence
        matrix, siphons/traps re-tested against their defining
        conditions, and each *proved* verdict re-derived from the
        verified witnesses.  (Completeness of the bounded siphon
        enumeration is the one claim taken on trust; the enumerative
        tier cross-check covers it.)
        """
        problems: list[str] = []
        matrix = IncidenceMatrix.of(net)
        if tuple(sorted(net.places)) != self.places:
            problems.append("place set differs from the certified net")
            return problems
        if tuple(sorted(net.transitions)) != self.transitions:
            problems.append("transition set differs from the certified net")
            return problems
        for inv in self.p_invariants:
            problems.extend(self._check_p_invariant(matrix, inv))
        for inv in self.t_invariants:
            problems.extend(self._check_t_invariant(matrix, inv))
        closed = matrix.closed(net.final_places)
        for witness in self.siphons:
            problems.extend(self._check_siphon(closed, witness))
        reached, fireable = token_flow_closure(net)
        if set(self.structurally_reachable) != reached:
            problems.append("structural reachability closure differs")
        if self.safe is Verdict.PROVED:
            for place in self.places:
                if place in reached and not any(
                        inv.weight(place) > 0
                        for inv in self.unit_invariants):
                    problems.append(
                        f"safety proved but {place!r} has no 1-token "
                        f"invariant cover")
        for place in self.places:
            covered = any(inv.weight(place) > 0 for inv in self.p_invariants)
            if covered:
                continue
            if self.conservative is Verdict.PROVED:
                problems.append(f"conservation proved but {place!r} is "
                                f"not covered by any P-invariant")
            elif self.bounded is Verdict.PROVED and place in reached:
                problems.append(f"boundedness proved but reachable "
                                f"{place!r} is uncovered")
        if self.deadlock_free is Verdict.PROVED and (
                not self.siphons_complete
                or any(not w.controlled for w in self.siphons)):
            problems.append("deadlock-freedom proved without a complete "
                            "set of controlled siphons")
        for tid in self.dead_transitions:
            if tid not in self.transitions:
                problems.append(f"dead transition {tid!r} is not in the net")
            elif tid in self.invariant_dead:
                j = matrix.transition_index[tid]
                if not any(self._excludes(inv, matrix, j)
                           for inv in self.p_invariants):
                    problems.append(
                        f"transition {tid!r} marked invariant-dead but no "
                        f"invariant excludes its input bag")
            elif tid in fireable:
                problems.append(f"transition {tid!r} marked closure-dead "
                                f"but the token-flow closure fires it")
        return problems

    def _check_p_invariant(self, matrix: IncidenceMatrix,
                           inv: Invariant) -> list[str]:
        problems = []
        vector = dict(inv.weights)
        if not vector or any(w <= 0 for w in vector.values()):
            problems.append(f"P-invariant {inv} has a non-positive weight")
        unknown = set(vector) - set(self.places)
        if unknown:
            problems.append(f"P-invariant {inv} weights unknown places "
                            f"{sorted(unknown)}")
            return problems
        for j, tid in enumerate(matrix.transitions):
            total = sum(vector.get(matrix.places[row], 0) * value
                        for row, value in matrix.column(j).items())
            if total != 0:
                problems.append(f"P-invariant {inv} is not conserved by "
                                f"{tid!r} (y.C = {total})")
        tokens = sum(vector.get(matrix.places[row], 0) * count
                     for row, count in matrix.initial.items())
        if tokens != inv.tokens:
            problems.append(f"P-invariant {inv} records {inv.tokens} "
                            f"initial tokens, the marking holds {tokens}")
        return problems

    def _check_t_invariant(self, matrix: IncidenceMatrix,
                           inv: Invariant) -> list[str]:
        problems = []
        vector = dict(inv.weights)
        if not vector or any(w <= 0 for w in vector.values()):
            problems.append(f"T-invariant {inv} has a non-positive weight")
        unknown = set(vector) - set(self.transitions)
        if unknown:
            problems.append(f"T-invariant {inv} weights unknown "
                            f"transitions {sorted(unknown)}")
            return problems
        effect: dict[int, int] = {}
        for tid, count in vector.items():
            for row, value in matrix.column(
                    matrix.transition_index[tid]).items():
                effect[row] = effect.get(row, 0) + count * value
        nonzero = {row: v for row, v in effect.items() if v}
        if nonzero:
            problems.append(f"T-invariant {inv} changes the marking of "
                            f"{sorted(matrix.places[r] for r in nonzero)}")
        return problems

    def _check_siphon(self, closed: IncidenceMatrix,
                      witness: SiphonWitness) -> list[str]:
        problems = []
        rows = frozenset(closed.place_index[p] for p in witness.places
                         if p in closed.place_index)
        if len(rows) != len(witness.places):
            problems.append(f"siphon {list(witness.places)} names unknown "
                            f"places")
            return problems
        if not is_siphon(closed, rows):
            problems.append(f"{list(witness.places)} is not a siphon of "
                            f"the short-circuited net")
        trap_rows = frozenset(closed.place_index[p] for p in witness.trap
                              if p in closed.place_index)
        if not set(witness.trap) <= set(witness.places):
            problems.append(f"trap {list(witness.trap)} escapes its siphon")
        if witness.trap and not is_trap(closed, trap_rows):
            problems.append(f"{list(witness.trap)} is not a trap")
        marked = any(row in closed.initial for row in trap_rows)
        if witness.trap_marked != marked:
            problems.append(f"trap {list(witness.trap)} marking flag is "
                            f"wrong (recorded {witness.trap_marked})")
        return problems

    @staticmethod
    def _excludes(inv: Invariant, matrix: IncidenceMatrix, j: int) -> bool:
        """Does ``inv`` prove column ``j``'s input bag unfillable?"""
        demand = sum(inv.weight(matrix.places[row]) * weight
                     for row, weight in matrix.pre[j].items())
        return demand > inv.tokens

    # ------------------------------------------------------------------
    def to_dict(self) -> dict[str, object]:
        """JSON-serialisable form (byte-stable; timings excluded)."""
        return {
            "net": self.net_name,
            "p_invariants": [inv.to_dict() for inv in self.p_invariants],
            "t_invariants": [inv.to_dict() for inv in self.t_invariants],
            "siphons": [w.to_dict() for w in self.siphons],
            "complete": {"p": self.p_complete, "t": self.t_complete,
                         "siphons": self.siphons_complete},
            "verdicts": {
                "safe": self.safe.value,
                "bounded": self.bounded.value,
                "conservative": self.conservative.value,
                "deadlock_free": self.deadlock_free.value,
            },
            "uncovered_places": list(self.uncovered_places),
            "unbounded_places": list(self.unbounded_places),
            "uncontrolled_siphons": [list(s)
                                     for s in self.uncontrolled_siphons],
            "dead_transitions": list(self.dead_transitions),
        }

    def summary(self) -> str:
        """One line, e.g. ``"ex: safe=proved deadlock_free=proved ..."``."""
        dead = len(self.dead_transitions)
        return (f"{self.net_name}: {len(self.p_invariants)} P-invariants, "
                f"{len(self.t_invariants)} T-invariants, "
                f"{len(self.siphons)} siphons | safe={self.safe} "
                f"bounded={self.bounded} conservative={self.conservative} "
                f"deadlock_free={self.deadlock_free} | {dead} dead "
                f"transition{'s' if dead != 1 else ''}")

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"StructuralCertificate({self.summary()!r})"


def structural_certificate(net: PetriNet, *,
                           max_rows: int = DEFAULT_MAX_ROWS,
                           max_nodes: int = DEFAULT_MAX_NODES,
                           max_siphons: int = DEFAULT_MAX_SIPHONS,
                           budget: Optional[Budget] = None
                           ) -> StructuralCertificate:
    """Compute the structural certificate of ``net``.

    Pure integer linear algebra over the incidence matrix — no marking
    is ever enumerated, so the cost is polynomial in the net size for
    the control parts this library builds (worst-case caps turn
    pathological nets into *inconclusive* verdicts, never stalls).
    """
    started = time.perf_counter()
    matrix = IncidenceMatrix.of(net)
    places = matrix.places
    transitions = matrix.transitions

    p_raw, p_complete = p_semiflows(matrix, max_rows=max_rows, budget=budget)
    t_raw, t_complete = t_semiflows(matrix, max_rows=max_rows, budget=budget)
    p_invariants = tuple(sorted(
        (Invariant("P",
                   tuple(sorted((places[row], weight)
                                for row, weight in vector.items())),
                   tokens=sum(weight * matrix.initial.get(row, 0)
                              for row, weight in vector.items()))
         for vector in p_raw),
        key=lambda inv: inv.weights))
    t_invariants = tuple(sorted(
        (Invariant("T",
                   tuple(sorted((transitions[col], weight)
                                for col, weight in vector.items())))
         for vector in t_raw),
        key=lambda inv: inv.weights))

    reachable_set, fireable_set = token_flow_closure(net)
    reachable = tuple(sorted(reachable_set))
    fireable = tuple(sorted(fireable_set))

    # --- safety / boundedness / conservation --------------------------
    unit = [inv for inv in p_invariants if inv.unit]
    uncovered = tuple(sorted(
        p for p in places
        if p in reachable_set
        and not any(inv.weight(p) > 0 for inv in unit)))
    safe = Verdict.PROVED if not uncovered else Verdict.INCONCLUSIVE

    unbounded = tuple(sorted(
        p for p in places
        if p in reachable_set
        and not any(inv.weight(p) > 0 for inv in p_invariants)))
    bounded = Verdict.PROVED if not unbounded else Verdict.INCONCLUSIVE

    covered_all = all(any(inv.weight(p) > 0 for inv in p_invariants)
                      for p in places)
    if covered_all:
        conservative = Verdict.PROVED
    elif p_complete:
        conservative = Verdict.REFUTED
    else:
        conservative = Verdict.INCONCLUSIVE

    # --- statically dead transitions ----------------------------------
    closure_dead = [tid for j, tid in enumerate(transitions)
                    if matrix.pre[j] and tid not in fireable_set]
    invariant_dead = []
    for j in range(len(transitions)):
        if not matrix.pre[j] or transitions[j] in closure_dead:
            continue
        demand_beats = any(
            sum(inv.weight(places[row]) * weight
                for row, weight in matrix.pre[j].items()) > inv.tokens
            for inv in p_invariants)
        if demand_beats:
            invariant_dead.append(transitions[j])
    dead = tuple(sorted(set(closure_dead) | set(invariant_dead)))

    # --- deadlock-freedom on the short-circuited net ------------------
    ordinary = matrix.is_ordinary()
    closed = matrix.closed(net.final_places)
    witnesses: list[SiphonWitness] = []
    uncontrolled: list[tuple[str, ...]] = []
    siphons_complete = True
    if not ordinary:
        # Weighted arcs void the unmarked-set-is-a-siphon argument.
        deadlock = Verdict.INCONCLUSIVE
    elif not closed.transitions:
        deadlock = (Verdict.PROVED if net.is_final(net.initial_marking)
                    else Verdict.REFUTED)
    else:
        raw_siphons, siphons_complete = minimal_siphons(
            closed, max_nodes=max_nodes, max_siphons=max_siphons)
        for rows in raw_siphons:
            trap = maximal_trap(closed, rows)
            witness = SiphonWitness(
                places=tuple(sorted(places[i] for i in rows)),
                trap=tuple(sorted(places[i] for i in trap)),
                trap_marked=any(i in closed.initial for i in trap))
            witnesses.append(witness)
            if not witness.controlled:
                uncontrolled.append(witness.places)
        if siphons_complete and not uncontrolled:
            deadlock = Verdict.PROVED
        else:
            deadlock = Verdict.INCONCLUSIVE
    witnesses.sort(key=lambda w: w.places)
    uncontrolled.sort()

    return StructuralCertificate(
        net_name=net.name,
        places=places,
        transitions=transitions,
        p_invariants=p_invariants,
        t_invariants=t_invariants,
        siphons=tuple(witnesses),
        p_complete=p_complete,
        t_complete=t_complete,
        siphons_complete=siphons_complete,
        safe=safe,
        uncovered_places=uncovered,
        bounded=bounded,
        unbounded_places=unbounded,
        conservative=conservative,
        deadlock_free=deadlock,
        uncontrolled_siphons=tuple(tuple(s) for s in uncontrolled),
        dead_transitions=dead,
        invariant_dead=tuple(sorted(invariant_dead)),
        structurally_reachable=reachable,
        structurally_fireable=fireable,
        ordinary=ordinary,
        elapsed_seconds=time.perf_counter() - started,
    )

"""The state space of a safe timed Petri net, and its token-flow closure.

:class:`ReachabilityGraph` is the library's one marking explorer: a BFS
that visits each distinct reachable marking once (``O(n^2)`` markings
for two concurrent chains of length ``n``, where enumerating
interleavings costs ``O(2^n)``).  The critical-path extractor, the
may-happen-in-parallel analysis, the two-tier safety/deadlock
dispatcher and lint rule ``NET007`` all walk it.  Firings that would
double-mark a place are recorded in
:attr:`ReachabilityGraph.unsafe_firings` instead of raising, so one
construction yields both the state space and the safeness audit.

:func:`token_flow_closure` is the enumeration-free over-approximation
that lint rules ``NET003``-``NET005`` and the structural certificate
share.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass

from ..errors import PetriNetError
from ..runtime.budget import Budget
from .net import PetriNet

#: Default bound on distinct markings before construction aborts.
DEFAULT_MAX_MARKINGS = 100_000


@dataclass(frozen=True)
class UnsafeFiring:
    """A reachable firing that would double-mark one or more places."""

    marking: frozenset[str]
    trans_id: str
    places: tuple[str, ...]

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (f"{self.trans_id} in {sorted(self.marking)} double-marks "
                f"{list(self.places)}")


@dataclass(frozen=True)
class GraphEdge:
    """One firing: ``src`` marking --trans_id--> ``dst`` marking."""

    src: frozenset[str]
    trans_id: str
    dst: frozenset[str]


class ReachabilityGraph:
    """The globally-deduplicated marking graph of a Petri net.

    Attributes:
        markings: distinct reachable markings in BFS order (the initial
            marking first).
        edges: every firing between reachable markings.
        unsafe_firings: enabled firings skipped because they would
            double-mark a place (the net is unsafe iff non-empty).
        truncated: True when an exhausted :class:`Budget` stopped the
            BFS early; the graph is then a well-formed *prefix* of the
            state space (every listed marking is reachable, frontier
            markings keep empty successor lists).
        elapsed_seconds: wall-clock cost of the BFS construction, so
            the two-tier dispatcher and the ``BENCH_analysis`` capture
            can report it without re-walking (or re-timing) the graph.
    """

    def __init__(self, net: PetriNet,
                 max_markings: int = DEFAULT_MAX_MARKINGS,
                 budget: Budget | None = None) -> None:
        self.net = net
        self.markings: list[frozenset[str]] = []
        self.edges: list[GraphEdge] = []
        self.unsafe_firings: list[UnsafeFiring] = []
        self.truncated = False
        self.truncation_reason = ""
        self._succ: dict[frozenset[str], list[GraphEdge]] = {}
        started = time.perf_counter()
        self._build(max_markings, budget)
        self.elapsed_seconds = time.perf_counter() - started

    def _build(self, max_markings: int,
               budget: Budget | None = None) -> None:
        net = self.net
        seen: set[frozenset[str]] = {net.initial_marking}
        queue: deque[frozenset[str]] = deque([net.initial_marking])
        while queue:
            marking = queue.popleft()
            self.markings.append(marking)
            self._succ[marking] = []
            if budget is not None and not budget.charge():
                # Budget drained: keep the already-discovered frontier
                # visible (unexpanded, no successors) and stop cleanly.
                self.truncated = True
                self.truncation_reason = "budget_exhausted"
                while queue:
                    frontier = queue.popleft()
                    self.markings.append(frontier)
                    self._succ[frontier] = []
                return
            if net.is_final(marking):
                continue  # the computation has terminated; do not expand
            for transition in net.enabled(marking):
                if not transition.inputs:
                    continue  # sourceless transitions are NET006 errors
                clash = set(transition.outputs) & (marking
                                                   - set(transition.inputs))
                if clash:
                    self.unsafe_firings.append(UnsafeFiring(
                        marking, transition.trans_id, tuple(sorted(clash))))
                    continue
                after = net.fire(marking, transition)
                edge = GraphEdge(marking, transition.trans_id, after)
                self.edges.append(edge)
                self._succ[marking].append(edge)
                if after not in seen:
                    if len(seen) >= max_markings:
                        raise PetriNetError(
                            f"{net.name}: reachability graph exceeds "
                            f"{max_markings} markings")
                    seen.add(after)
                    queue.append(after)

    # ------------------------------------------------------------------
    def successors(self, marking: frozenset[str]) -> list[GraphEdge]:
        """Firings leaving ``marking`` (empty for unknown markings)."""
        return list(self._succ.get(marking, []))

    def contains(self, marking: frozenset[str]) -> bool:
        """True when ``marking`` is reachable."""
        return marking in self._succ

    def is_safe(self) -> bool:
        """True when no reachable firing would double-mark a place."""
        return not self.unsafe_firings

    @property
    def marking_count(self) -> int:
        """Distinct markings discovered (result-object counter)."""
        return len(self.markings)

    @property
    def edge_count(self) -> int:
        """Firings recorded between discovered markings."""
        return len(self.edges)

    def __len__(self) -> int:
        return len(self.markings)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"ReachabilityGraph({self.net.name!r}, "
                f"{len(self.markings)} markings, {len(self.edges)} edges)")


def token_flow_closure(net: PetriNet) -> tuple[set[str], set[str]]:
    """(reachable places, fireable transitions) without enumeration.

    A transition counts as fireable once all its input places have ever
    been producible from the initial marking (sourceless ones never).
    Exact for the safe, conflict-light control nets this library
    builds, an over-approximation in general, so its negative facts are
    sound: a place outside it is never marked, a transition never fires.
    """
    reachable = set(net.initial_marking)
    fireable: set[str] = set()
    changed = True
    while changed:
        changed = False
        for transition in net.transitions.values():
            if transition.trans_id in fireable or not transition.inputs:
                continue
            if all(p in reachable for p in transition.inputs):
                fireable.add(transition.trans_id)
                reachable.update(transition.outputs)
                changed = True
    return reachable, fireable

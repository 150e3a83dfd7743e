"""The may-happen-in-parallel (MHP) relation of a control part.

Derived from the memoised :class:`~repro.petri.reachability.ReachabilityGraph`:

* two *places* may happen in parallel when some reachable marking holds
  tokens in both (a place is trivially parallel with itself once it is
  ever marked — everything resting in it happens within one control
  step);
* two *transitions* are concurrently enabled when both are enabled in
  one reachable marking.  Pairs with disjoint input places are true
  concurrency (they can fire independently); pairs sharing an input
  place are in *conflict* (a choice, e.g. the guarded loop/exit pair);
* two *operations* may happen in parallel when the places they execute
  in may — this is the relation the race detector
  (:mod:`repro.analysis.races`) joins against the binding.

For the linear control nets built from a schedule the op-level MHP
relation degenerates to "same control step", which is exactly what the
schedule-level lint rules already see.  Its value is on control parts
with forks, guarded branches and loops, where the linear schedule view
under-approximates concurrency.

When the enumeration is *truncated* (an exhausted
:class:`~repro.runtime.budget.Budget` or an explicit
``tier="structural"``), the relations are rebuilt as a **sound
over-approximation** from the structural certificate instead of being
left as an unsound prefix: any pair the structural tier cannot prove
mutually exclusive is treated as parallel.  A race detector joining
against that over-approximation can report spurious races but can never
miss one — the safe direction for a checker.  :attr:`MHPAnalysis.tier`
and :attr:`MHPAnalysis.approximate` say which mode produced the result.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from ..petri.net import PetriNet
from ..petri.reachability import DEFAULT_MAX_MARKINGS, ReachabilityGraph
from ..runtime.budget import Budget
from .structural import StructuralCertificate, structural_certificate


class MHPAnalysis:
    """MHP relations over places and transitions of one net.

    Args:
        net: the control Petri net.
        max_markings: bound on the reachability-graph construction.
        budget: cooperative budget charged per expanded marking; when
            it drains the analysis switches to the structural
            over-approximation instead of returning a truncated (and
            therefore unsound) relation.
        tier: ``"auto"`` (enumerate, fall back on truncation),
            ``"enumerative"`` (never fall back; a truncated graph then
            yields the legacy under-approximating prefix relation) or
            ``"structural"`` (never enumerate — :attr:`graph` stays
            None and every relation is the over-approximation).

    Attributes:
        graph: the reachability graph, or None in the structural tier.
        certificate: the structural certificate backing the
            over-approximation (None while the exact tier suffices).
        tier: ``"enumerative"`` or ``"structural"`` — which engine
            produced the relations actually stored.
        approximate: True when the relations over- (structural tier) or
            under-approximate (truncated enumerative tier) the exact
            MHP relation.
    """

    def __init__(self, net: PetriNet,
                 max_markings: int = DEFAULT_MAX_MARKINGS,
                 budget: Optional[Budget] = None,
                 tier: str = "auto") -> None:
        if tier not in ("auto", "enumerative", "structural"):
            raise ValueError(f"unknown MHP tier {tier!r}")
        self.net = net
        self.graph: Optional[ReachabilityGraph] = None
        self.certificate: Optional[StructuralCertificate] = None
        self.approximate = False
        #: Places that hold a token in at least one reachable marking.
        self.marked_places: set[str] = set()
        #: Unordered pairs of distinct places co-marked somewhere.
        self.place_pairs: set[frozenset[str]] = set()
        #: Unordered pairs of distinct transitions enabled together.
        self.enabled_pairs: set[frozenset[str]] = set()
        #: The subset of ``enabled_pairs`` with disjoint input places.
        self.concurrent_pairs: set[frozenset[str]] = set()
        if tier != "structural":
            self.graph = ReachabilityGraph(net, max_markings, budget=budget)
        if tier == "structural" or (tier == "auto" and self.graph is not None
                                    and self.graph.truncated):
            self.tier = "structural"
            self.approximate = True
            self._compute_structural()
        else:
            self.tier = "enumerative"
            assert self.graph is not None
            self.approximate = self.graph.truncated
            self._compute()

    def _compute(self) -> None:
        assert self.graph is not None
        for marking in self.graph.markings:
            self.marked_places |= marking
            for p, q in combinations(sorted(marking), 2):
                self.place_pairs.add(frozenset((p, q)))
            enabled = [t for t in self.net.enabled(marking) if t.inputs]
            for a, b in combinations(enabled, 2):
                pair = frozenset((a.trans_id, b.trans_id))
                self.enabled_pairs.add(pair)
                if not set(a.inputs) & set(b.inputs):
                    self.concurrent_pairs.add(pair)

    def _compute_structural(self) -> None:
        """Sound over-approximation of the relations, no enumeration.

        A pair of places is *excluded* only when the certificate proves
        it (shared 1-token invariant or closure-unreachability); every
        other pair of structurally-reachable places is kept as may-be
        parallel.  Transitions count as jointly enabled unless some
        pair among their combined input places is proved exclusive —
        whenever both really are enabled at one marking, all those
        inputs are co-marked there, so no sound proof of exclusion can
        exist and the pair survives the filter.
        """
        cert = structural_certificate(self.net)
        self.certificate = cert
        reachable = sorted(cert.structurally_reachable)
        self.marked_places = set(reachable)
        for p, q in combinations(reachable, 2):
            if not cert.mutually_exclusive(p, q):
                self.place_pairs.add(frozenset((p, q)))
        live = [t for t in self.net.transitions.values()
                if t.inputs and t.trans_id in cert.structurally_fireable
                and t.trans_id not in cert.dead_transitions]
        for a, b in combinations(live, 2):
            inputs = set(a.inputs) | set(b.inputs)
            if any(cert.mutually_exclusive(p, q)
                   for p, q in combinations(sorted(inputs), 2)):
                continue
            pair = frozenset((a.trans_id, b.trans_id))
            self.enabled_pairs.add(pair)
            if not set(a.inputs) & set(b.inputs):
                self.concurrent_pairs.add(pair)

    # ------------------------------------------------------------------
    def conflict_pairs(self) -> set[frozenset[str]]:
        """Transition pairs enabled together but competing for a token."""
        return self.enabled_pairs - self.concurrent_pairs

    def places_parallel(self, p: str, q: str) -> bool:
        """May places ``p`` and ``q`` hold tokens at the same time?"""
        if p == q:
            return p in self.marked_places
        return frozenset((p, q)) in self.place_pairs

    def transitions_parallel(self, a: str, b: str) -> bool:
        """May transitions ``a`` and ``b`` fire truly concurrently?"""
        return a != b and frozenset((a, b)) in self.concurrent_pairs

    # ------------------------------------------------------------------
    def op_pairs(self, placement: dict[str, str],
                 include_same_place: bool = True) -> set[frozenset[str]]:
        """Unordered MHP pairs of operations under ``placement``.

        Args:
            placement: op_id -> place the operation executes in.  Ops
                placed in unknown places are ignored (defensive: a
                broken schedule is reported by the schedule rules).
            include_same_place: also count two operations resting in the
                same (reachable) place — they execute within one control
                step.  Set False for strictly cross-step concurrency.
        """
        pairs: set[frozenset[str]] = set()
        placed = sorted(o for o, p in placement.items()
                        if p in self.net.places)
        for a, b in combinations(placed, 2):
            pa, pb = placement[a], placement[b]
            if pa == pb:
                if include_same_place and pa in self.marked_places:
                    pairs.add(frozenset((a, b)))
            elif frozenset((pa, pb)) in self.place_pairs:
                pairs.add(frozenset((a, b)))
        return pairs

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        markings = "no" if self.graph is None else len(self.graph)
        return (f"MHPAnalysis({self.net.name!r}, {self.tier}, "
                f"{markings} markings, "
                f"{len(self.place_pairs)} parallel place pairs)")

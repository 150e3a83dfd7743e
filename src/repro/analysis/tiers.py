"""Two-tier safety/liveness analysis: structure first, BFS on demand.

The structural tier (:func:`~repro.analysis.structural.structural_certificate`)
answers in polynomial time from the incidence matrix; the enumerative
tier (:class:`~repro.petri.reachability.ReachabilityGraph`) is exact
but walks the marking space and is the first thing an exhausted
:class:`~repro.runtime.budget.Budget` truncates.  :class:`TieredAnalysis`
dispatches between them per property:

1. compute the structural certificate (always — it is cheap);
2. every property the certificate *decides* is reported with
   ``tier == "structural"`` and never touches the state space;
3. undecided properties fall back to one shared BFS (budgeted); a
   truncated BFS yields ``tier == "inconclusive"`` with the structural
   partial evidence attached instead of a silently wrong answer.

:func:`cross_check` runs both tiers to completion and reports any
disagreement — the blocking CI gate that keeps the fast tier honest.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

from ..errors import PetriNetError
from ..petri.net import PetriNet
from ..petri.reachability import DEFAULT_MAX_MARKINGS, ReachabilityGraph
from ..runtime.budget import Budget
from .structural import StructuralCertificate, Verdict, structural_certificate


class Tier(enum.Enum):
    """Which analysis level settled (or failed to settle) a property."""

    STRUCTURAL = "structural"
    ENUMERATIVE = "enumerative"
    INCONCLUSIVE = "inconclusive"

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class TierDecision:
    """One property verdict and the tier that produced it.

    Attributes:
        prop: property name (``"safe"`` / ``"deadlock_free"``).
        value: True/False when decided, None when both tiers gave up.
        tier: the deciding tier.
        detail: one-line human explanation of the evidence.
    """

    prop: str
    value: Optional[bool]
    tier: Tier
    detail: str = ""

    def __str__(self) -> str:  # pragma: no cover - debug helper
        shown = {True: "yes", False: "NO", None: "unknown"}[self.value]
        return f"{self.prop}={shown} [{self.tier}]"


def stuck_markings(net: PetriNet,
                   graph: ReachabilityGraph) -> list[frozenset[str]]:
    """Reachable non-final markings with no enabled transition.

    This is the enumerative twin of the structural deadlock verdict:
    the intended final markings do *not* count (termination is the
    control part's job, not a failure), and enabledness follows
    :meth:`~repro.petri.net.PetriNet.enabled` — a marking whose only
    firings would be unsafe still counts as live, exactly as in the
    siphon/trap argument.
    """
    return [marking for marking in graph.markings
            if not net.is_final(marking) and not net.enabled(marking)]


class TieredAnalysis:
    """Structure-first safety/deadlock analysis of one control part.

    Args:
        net: the control Petri net.
        max_markings: bound for the enumerative fallback.
        budget: cooperative budget charged by the fallback BFS; when it
            drains mid-walk the affected properties come back
            ``inconclusive`` instead of silently truncated.
        force_tier: pin the analysis to one tier — ``Tier.STRUCTURAL``
            never builds the graph, ``Tier.ENUMERATIVE`` ignores the
            certificate's verdicts (it is still computed; it is cheap
            and carries the invariants).  None picks automatically.
        graph: a reachability graph someone already paid for (e.g. the
            MHP analysis of the same net); reused for the enumerative
            fallback instead of a second BFS.

    Attributes:
        certificate: the structural certificate (always present).
        graph: the reachability graph, or None when the structural
            tier decided everything (the whole point of the fast path).
    """

    def __init__(self, net: PetriNet,
                 max_markings: int = DEFAULT_MAX_MARKINGS,
                 budget: Optional[Budget] = None,
                 force_tier: Optional[Tier] = None,
                 graph: Optional[ReachabilityGraph] = None) -> None:
        self.net = net
        self.certificate: StructuralCertificate = structural_certificate(net)
        self.graph: Optional[ReachabilityGraph] = graph
        self._max_markings = max_markings
        self._budget = budget
        self._force = force_tier
        self.safe = self._decide(
            "safe", self.certificate.safe,
            structural_detail=self._safety_detail(),
            enumerate_value=self._enumerative_safe)
        self.deadlock_free = self._decide(
            "deadlock_free", self.certificate.deadlock_free,
            structural_detail=self._deadlock_detail(),
            enumerate_value=self._enumerative_deadlock_free)

    # ------------------------------------------------------------------
    def _decide(self, prop: str, verdict: Verdict, structural_detail: str,
                enumerate_value) -> TierDecision:
        if verdict.decided and self._force is not Tier.ENUMERATIVE:
            return TierDecision(prop, verdict is Verdict.PROVED,
                                Tier.STRUCTURAL, structural_detail)
        if self._force is Tier.STRUCTURAL:
            return TierDecision(prop, None, Tier.INCONCLUSIVE,
                                f"structure inconclusive: "
                                f"{structural_detail}; enumeration disabled")
        try:
            graph = self._ensure_graph()
        except PetriNetError as exc:
            return TierDecision(prop, None, Tier.INCONCLUSIVE,
                                f"structure inconclusive and enumeration "
                                f"impossible: {exc}")
        if graph.truncated:
            return TierDecision(
                prop, None, Tier.INCONCLUSIVE,
                f"structure inconclusive and the reachability budget "
                f"drained after {graph.marking_count} markings "
                f"({graph.truncation_reason})")
        value, detail = enumerate_value(graph)
        return TierDecision(prop, value, Tier.ENUMERATIVE, detail)

    def _ensure_graph(self) -> ReachabilityGraph:
        if self.graph is None:
            self.graph = ReachabilityGraph(self.net, self._max_markings,
                                           budget=self._budget)
        return self.graph

    # ------------------------------------------------------------------
    def _safety_detail(self) -> str:
        cert = self.certificate
        if cert.safe is Verdict.PROVED:
            units = len(cert.unit_invariants)
            return (f"every place covered by one of {units} 1-token "
                    f"P-invariant{'s' if units != 1 else ''}")
        return (f"{len(cert.uncovered_places)} place(s) without a 1-token "
                f"invariant cover: {list(cert.uncovered_places[:4])}")

    def _deadlock_detail(self) -> str:
        cert = self.certificate
        if cert.deadlock_free is Verdict.PROVED:
            count = len(cert.siphons)
            return (f"all {count} minimal siphon"
                    f"{'s' if count != 1 else ''} of the short-circuited "
                    f"net contain an initially-marked trap")
        if cert.deadlock_free is Verdict.REFUTED:
            return "the initial marking is already stuck"
        if not cert.siphons_complete:
            return "siphon enumeration capped"
        return (f"{len(cert.uncontrolled_siphons)} siphon(s) without a "
                f"marked trap: {[list(s) for s in cert.uncontrolled_siphons[:2]]}")

    def _enumerative_safe(self, graph: ReachabilityGraph):
        if graph.is_safe():
            return True, f"no unsafe firing in {graph.marking_count} markings"
        firing = graph.unsafe_firings[0]
        return False, (f"firing {firing.trans_id!r} double-marks "
                       f"{list(firing.places)}")

    def _enumerative_deadlock_free(self, graph: ReachabilityGraph):
        stuck = stuck_markings(self.net, graph)
        if not stuck:
            return True, (f"no stuck marking among {graph.marking_count} "
                          f"reachable markings")
        return False, (f"{len(stuck)} stuck marking(s), e.g. "
                       f"{sorted(stuck[0])}")

    # ------------------------------------------------------------------
    def decisions(self) -> tuple[TierDecision, TierDecision]:
        """The (safety, deadlock-freedom) decisions."""
        return self.safe, self.deadlock_free

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"TieredAnalysis({self.net.name!r}, {self.safe}, "
                f"{self.deadlock_free})")


# ----------------------------------------------------------------------
def cross_check(net: PetriNet,
                max_markings: int = DEFAULT_MAX_MARKINGS) -> list[str]:
    """Compare structural and enumerative verdicts; [] when they agree.

    Soundness contract being asserted: a *decided* structural verdict
    must match exact enumeration, and every structurally-dead
    transition must indeed never fire.  Inconclusive structural
    verdicts constrain nothing (that is what the fallback tier is for).
    """
    cert = structural_certificate(net)
    graph = ReachabilityGraph(net, max_markings)
    mismatches: list[str] = []

    enum_safe = graph.is_safe()
    if cert.safe.decided and (cert.safe is Verdict.PROVED) != enum_safe:
        mismatches.append(
            f"{net.name}: structural safety={cert.safe} but enumeration "
            f"says safe={enum_safe}")

    enum_live = not stuck_markings(net, graph)
    if cert.deadlock_free.decided and \
            (cert.deadlock_free is Verdict.PROVED) != enum_live:
        mismatches.append(
            f"{net.name}: structural deadlock_free={cert.deadlock_free} "
            f"but enumeration says deadlock_free={enum_live}")

    fired = {edge.trans_id for edge in graph.edges}
    lying = sorted(set(cert.dead_transitions) & fired)
    if lying:
        mismatches.append(
            f"{net.name}: transitions {lying} proved statically dead "
            f"yet fire in the reachability graph")

    problems = cert.check(net)
    if problems:
        mismatches.append(f"{net.name}: certificate fails its own check: "
                          f"{problems[0]}")
    return mismatches

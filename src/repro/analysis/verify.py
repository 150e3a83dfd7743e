"""One-call whole-design verification: races + equivalence certificate.

:func:`analyze_design` runs the ``analysis`` lint layer over a design
point and packages the underlying analysis objects into an
:class:`AnalysisResult`; :func:`merger_preserves_semantics` is the
narrow boolean the synthesis kernel consults when
``SynthesisParams(verify_mergers=True)`` is set.

The result also carries the two-tier safety/deadlock verdicts
(:mod:`repro.analysis.tiers`): the structural certificate is always
computed, and the enumerative fallback reuses the reachability graph
the MHP analysis already built — a full ``analyze_design`` performs at
most one BFS.

Lint is imported inside the functions: the analysis core must stay
importable from the lint rule module without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from ..errors import ReproError
from ..petri.reachability import DEFAULT_MAX_MARKINGS
from ..runtime.budget import Budget
from .equivalence import EquivalenceCertificate
from .races import ConcurrencyAnalysis
from .structural import StructuralCertificate
from .tiers import Tier, TierDecision, TieredAnalysis

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from ..lint.diagnostic import Diagnostic, LintReport

#: CLI tier names -> :class:`~repro.analysis.tiers.Tier` pin.
TIER_NAMES: dict[str, Optional[Tier]] = {
    "auto": None,
    "structural": Tier.STRUCTURAL,
    "enumerative": Tier.ENUMERATIVE,
}


@dataclass
class AnalysisResult:
    """The outcome of analysing one design point.

    Attributes:
        name: design name.
        report: the ``analysis``-layer lint report (RAC/EQV findings).
        concurrency: the underlying MHP/race analysis, or None when the
            control net could not be explored.
        certificate: the symbolic equivalence certificate, or None when
            the design is not certifiable (incomplete schedule/binding).
        structural: the structural certificate of the control part, or
            None when no net could be derived.
        safe: the tiered safety decision (which tier proved it), or
            None when no net could be derived.
        deadlock_free: the tiered deadlock-freedom decision, likewise.
    """

    name: str
    report: "LintReport"
    concurrency: Optional[ConcurrencyAnalysis] = None
    certificate: Optional[EquivalenceCertificate] = None
    structural: Optional[StructuralCertificate] = None
    safe: Optional[TierDecision] = None
    deadlock_free: Optional[TierDecision] = None

    @property
    def markings(self) -> int:
        """Distinct reachable markings of the control part (0 if unknown
        or when the structural tier answered without enumerating)."""
        if self.concurrency is None or self.concurrency.mhp.graph is None:
            return 0
        return len(self.concurrency.mhp.graph)

    @property
    def races(self) -> list["Diagnostic"]:
        """The RAC diagnostics of the report."""
        return [d for d in self.report if d.code.startswith("RAC")]

    @property
    def divergences(self) -> list["Diagnostic"]:
        """The EQV diagnostics of the report."""
        return [d for d in self.report if d.code.startswith("EQV")]

    @property
    def ok(self) -> bool:
        """True when the analysis produced no error-severity finding."""
        return self.report.ok()

    @property
    def verified(self) -> bool:
        """Strongest verdict: race-free *and* a valid certificate exists."""
        return (self.ok and self.certificate is not None
                and self.certificate.valid)

    def summary(self) -> str:
        """One line, e.g. ``"ex: 7 markings, 0 races, certificate valid"``."""
        races = len(self.races)
        if self.certificate is None:
            cert = "no certificate"
        elif self.certificate.valid:
            cert = "certificate valid"
        else:
            cert = f"{len(self.certificate.divergences)} divergences"
        return (f"{self.name}: {self.markings} markings, {races} race"
                f"{'s' if races != 1 else ''}, {cert}")


def analyze_design(design,
                   max_markings: int = DEFAULT_MAX_MARKINGS,
                   budget: Optional[Budget] = None,
                   tier: str = "auto") -> AnalysisResult:
    """Run the full concurrency + equivalence analysis on a design.

    Args:
        design: a :class:`repro.etpn.design.Design` point.
        max_markings: bound on reachability-graph construction.
        budget: cooperative budget for the enumerative parts; when it
            drains the MHP relation degrades to the sound structural
            over-approximation and the tiered verdicts report
            ``inconclusive`` instead of truncated answers.
        tier: ``"auto"`` (structure first, enumerate when needed),
            ``"structural"`` (never enumerate) or ``"enumerative"``
            (classic exhaustive analysis).

    The analysis itself never raises on a bad design — every problem
    becomes a diagnostic in ``result.report`` (derivation failures are
    ``LNT001``).
    """
    from ..lint.registry import LintContext
    from ..lint.runner import run_analysis_layer
    from ..lint.rules_analysis import cached_concurrency, cached_certificate

    if tier not in TIER_NAMES:
        raise ValueError(f"unknown analysis tier {tier!r}")
    ctx = LintContext(name=design.dfg.name, dfg=design.dfg,
                      steps=design.steps, binding=design.binding,
                      net=design.control_net)
    ctx.cache["analysis.max_markings"] = max_markings
    ctx.cache["analysis.budget"] = budget
    ctx.cache["analysis.tier"] = tier
    report = run_analysis_layer(ctx)
    concurrency = cached_concurrency(ctx)
    structural = None
    safe = None
    deadlock_free = None
    net = design.control_net
    if net is not None:
        # Reuse the graph the MHP analysis built (None in the
        # structural tier) — at most one BFS per analyze_design call.
        graph = concurrency.mhp.graph if concurrency is not None else None
        tiered = TieredAnalysis(net, max_markings=max_markings,
                                budget=budget,
                                force_tier=TIER_NAMES[tier], graph=graph)
        structural = tiered.certificate
        safe = tiered.safe
        deadlock_free = tiered.deadlock_free
    return AnalysisResult(name=design.dfg.name, report=report,
                          concurrency=concurrency,
                          certificate=cached_certificate(ctx),
                          structural=structural, safe=safe,
                          deadlock_free=deadlock_free)


def merger_preserves_semantics(design, max_markings: int = 20_000) -> bool:
    """May the synthesis kernel accept this merged design point?

    True when the design point is race-free under MHP analysis and its
    symbolic equivalence certificate is valid.  Conservative: any
    analysis failure (unexplorable net, uncertifiable design) rejects
    the merger rather than accepting it unverified.
    """
    try:
        return analyze_design(design, max_markings=max_markings).verified
    except ReproError:
        return False

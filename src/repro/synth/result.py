"""Synthesis results: the final design plus the merger history."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..etpn.design import Design


@dataclass(frozen=True)
class MergeRecord:
    """One accepted merger of the synthesis run."""

    iteration: int
    kind: str
    kept: str
    absorbed: str
    delta_e: float
    delta_h: float
    delta_c: float
    order: tuple[str, ...]


@dataclass(frozen=True)
class SkippedCandidate:
    """A merger candidate whose evaluation blew up and was skipped.

    The per-candidate exception barrier in Algorithm 1 records these
    instead of letting one misbehaving candidate abort the whole
    synthesis run; ``reason`` keeps the exception type and message for
    post-mortems.
    """

    iteration: int
    kind: str
    node_a: str
    node_b: str
    reason: str


@dataclass
class SynthesisResult:
    """Everything a synthesis flow returns.

    Attributes:
        design: the final ETPN design point.
        history: accepted mergers in application order (empty for the
            one-shot baseline flows).
        params: the (k, α, β) and bit width the run used.
        skipped: candidates whose evaluation raised and were survived.
        degraded: True when the run stopped early on an exhausted
            budget — ``design`` is then the best design found so far,
            still validated, not the converged optimum.
        degradation_reasons: why the run is marked degraded.
    """

    design: Design
    history: list[MergeRecord] = field(default_factory=list)
    params: dict = field(default_factory=dict)
    skipped: list[SkippedCandidate] = field(default_factory=list)
    degraded: bool = False
    degradation_reasons: list[str] = field(default_factory=list)

    @property
    def iterations(self) -> int:
        """Number of mergers applied."""
        return len(self.history)

    def summary(self) -> dict:
        """Merge the design's structural summary with run metadata."""
        info = dict(self.design.summary())
        info["iterations"] = self.iterations
        info["label"] = self.design.label
        if self.degraded:
            info["degraded"] = True
            info["degradation_reasons"] = list(self.degradation_reasons)
        return info

"""Timing analysis result types: endpoints, paths, the report."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional


@dataclass(slots=True)
class EndpointTiming:
    """Worst-case timing of one endpoint (a DFF D input or a PO).

    ``arrival`` is None for an *unconstrained* endpoint: no timed
    launch (input or register output) reaches it — it is fed entirely
    by constants, so it carries no transition to time.
    """

    name: str
    kind: str                       # "output" | "dff"
    gid: int                        # PO driver gid, or the DFF's gid
    arrival: Optional[float] = None
    required: Optional[float] = None
    slack: Optional[float] = None
    levels: int = 0                 # logic levels on the worst path
    analysed: bool = True
    skip_reason: str = ""

    @property
    def violated(self) -> bool:
        return self.slack is not None and self.slack < 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "kind": self.kind, "gid": self.gid,
            "arrival": self.arrival, "required": self.required,
            "slack": self.slack, "levels": self.levels,
            "analysed": self.analysed, "skip_reason": self.skip_reason,
        }


@dataclass(frozen=True, slots=True)
class PathStep:
    """One gate on a critical path, with the arrival at its output."""

    gid: int
    gtype: str
    name: str
    arrival: float

    def to_dict(self) -> dict[str, Any]:
        return {"gid": self.gid, "gtype": self.gtype, "name": self.name,
                "arrival": self.arrival}


@dataclass
class TimingPath:
    """One worst path, launch point first, endpoint driver last."""

    endpoint: str
    arrival: float
    slack: Optional[float]
    steps: tuple[PathStep, ...]

    def to_dict(self) -> dict[str, Any]:
        return {"endpoint": self.endpoint, "arrival": self.arrival,
                "slack": self.slack,
                "steps": [s.to_dict() for s in self.steps]}

    def format(self) -> str:
        chain = " -> ".join(
            f"{s.gtype}#{s.gid}" + (f"({s.name})" if s.name else "")
            for s in self.steps)
        slack = "-" if self.slack is None else f"{self.slack:+.2f}"
        return (f"{self.endpoint}: arrival {self.arrival:.2f} "
                f"slack {slack}: {chain}")


@dataclass
class TimingReport:
    """The full result of one static timing analysis.

    Always well-formed: a blocked analysis (combinational cycle, broken
    delay table) or a starved one (budget) still yields a report whose
    fields say exactly what was and was not computed.
    """

    name: str
    bits: int
    period: float
    period_is_default: bool
    chain_allowance: float
    endpoints: list[EndpointTiming] = field(default_factory=list)
    paths: list[TimingPath] = field(default_factory=list)
    cycle: list[int] = field(default_factory=list)
    table_problems: list[str] = field(default_factory=list)
    library_problems: list[str] = field(default_factory=list)
    degraded: bool = False
    budget_exhausted: bool = False
    budget_reason: Optional[str] = None
    gates_total: int = 0
    #: Combinational gates whose ternary value is decided: constant
    #: for every input/state valuation, so timed as false paths.
    pruned_total: int = 0

    # ------------------------------------------------------------------
    def violations(self) -> list[EndpointTiming]:
        """Endpoints with negative slack, worst first."""
        bad = [e for e in self.endpoints if e.violated]
        bad.sort(key=lambda e: (e.slack, e.name))  # type: ignore[arg-type]
        return bad

    def unconstrained(self) -> list[EndpointTiming]:
        """Analysed endpoints no timed launch reaches."""
        return [e for e in self.endpoints
                if e.analysed and e.arrival is None]

    def skipped(self) -> list[EndpointTiming]:
        """Endpoints the analysis could not evaluate."""
        return [e for e in self.endpoints if not e.analysed]

    def wns(self) -> Optional[float]:
        """Worst negative slack (the minimum slack over all endpoints)."""
        slacks = [e.slack for e in self.endpoints if e.slack is not None]
        return min(slacks) if slacks else None

    def tns(self) -> float:
        """Total negative slack (0.0 when timing closes)."""
        return sum(e.slack for e in self.endpoints
                   if e.slack is not None and e.slack < 0.0)

    @property
    def ok(self) -> bool:
        """Timing closes and nothing blocked the analysis."""
        return (not self.violations() and not self.cycle
                and not self.table_problems and not self.library_problems
                and not self.degraded and not self.budget_exhausted)

    def summary(self) -> str:
        wns = self.wns()
        parts = [f"{self.name}: {len(self.endpoints)} endpoints at period "
                 f"{self.period:g}" + (" (default)" if self.period_is_default
                                       else ""),
                 f"wns {wns:+.2f}" if wns is not None else "wns -",
                 f"{len(self.violations())} violation(s)",
                 f"{self.pruned_total} constant gates pruned"]
        if self.cycle:
            parts.append(f"BLOCKED by combinational cycle "
                         f"({len(self.cycle) - 1} gates)")
        if self.budget_exhausted:
            parts.append(f"budget exhausted ({self.budget_reason})")
        if self.degraded:
            parts.append(f"{len(self.skipped())} endpoint(s) skipped")
        return ", ".join(parts)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name, "bits": self.bits, "period": self.period,
            "period_is_default": self.period_is_default,
            "chain_allowance": self.chain_allowance,
            "ok": self.ok, "wns": self.wns(), "tns": self.tns(),
            "violations": len(self.violations()),
            "unconstrained": len(self.unconstrained()),
            "endpoints": [e.to_dict() for e in self.endpoints],
            "paths": [p.to_dict() for p in self.paths],
            "cycle": list(self.cycle),
            "table_problems": list(self.table_problems),
            "library_problems": list(self.library_problems),
            "degraded": self.degraded,
            "budget_exhausted": self.budget_exhausted,
            "budget_reason": self.budget_reason,
            "gates_total": self.gates_total,
            "pruned_total": self.pruned_total,
        }

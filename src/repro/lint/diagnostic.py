"""Diagnostics: the unit of output of every design-rule check.

A :class:`Diagnostic` is one finding — a stable rule code (``DFG003``,
``BND004``, ...), a severity, the offending location inside the design
and a human-readable message with an optional fix hint.  Checkers never
raise on a finding; they collect :class:`Diagnostic` objects into a
:class:`LintReport` so a single run surfaces *every* violation, the way
Verilator or ruff report source problems.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Severity(enum.Enum):
    """How bad a finding is.

    ``ERROR`` findings make the design illegal (the raise-on-violation
    validators reject it); ``WARNING`` findings are legal but suspect
    (dead logic, testability smells); ``INFO`` findings are stylistic.
    """

    ERROR = "error"
    WARNING = "warning"
    INFO = "info"

    @property
    def rank(self) -> int:
        """Sort key: errors first."""
        return {"error": 0, "warning": 1, "info": 2}[self.value]

    def __str__(self) -> str:  # pragma: no cover - trivial
        return self.value


@dataclass(frozen=True)
class Diagnostic:
    """One design-rule finding.

    Attributes:
        code: stable rule identifier, e.g. ``"DFG003"``.
        severity: how bad the finding is.
        layer: which intermediate representation it was found in
            (``dfg``, ``sched``, ``binding``, ``analysis``, ``gates``,
            ``testability`` or ``pipeline``).
        location: the offending element (an op id, module id, gate id
            ...), empty for whole-design findings.
        message: human-readable description of the violation.
        hint: optional suggestion for fixing it.
    """

    code: str
    severity: Severity
    layer: str
    location: str
    message: str
    hint: str = ""

    def format(self) -> str:
        """One text line, ruff-style: severity, code, location, message."""
        where = f" at {self.location}" if self.location else ""
        hint = f" (hint: {self.hint})" if self.hint else ""
        return (f"{self.severity.value:<7} {self.code} [{self.layer}]"
                f"{where}: {self.message}{hint}")

    def to_dict(self) -> dict[str, str]:
        """JSON-serialisable form (used by ``repro-hlts lint --format json``)."""
        return {
            "code": self.code,
            "severity": self.severity.value,
            "layer": self.layer,
            "location": self.location,
            "message": self.message,
            "hint": self.hint,
        }


@dataclass
class LintReport:
    """A deduplicated, deterministically-ordered collection of findings.

    Identical diagnostics (all fields equal) are recorded once, no
    matter how many runs fold into the report, and :meth:`sorted` uses a
    total key — so rendering a report (text or JSON) is byte-stable.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._seen: set[Diagnostic] = set(self.diagnostics)

    # ------------------------------------------------------------------
    def add(self, diagnostic: Diagnostic) -> None:
        """Record one finding (exact duplicates are dropped)."""
        if diagnostic in self._seen:
            return
        self._seen.add(diagnostic)
        self.diagnostics.append(diagnostic)

    def extend(self, other: "LintReport") -> "LintReport":
        """Fold another report's findings into this one."""
        for diagnostic in other.diagnostics:
            self.add(diagnostic)
        return self

    # ------------------------------------------------------------------
    def errors(self) -> list[Diagnostic]:
        """Only the error-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.ERROR]

    def warnings(self) -> list[Diagnostic]:
        """Only the warning-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.WARNING]

    def infos(self) -> list[Diagnostic]:
        """Only the info-severity findings."""
        return [d for d in self.diagnostics if d.severity is Severity.INFO]

    @property
    def has_errors(self) -> bool:
        """True when any finding is an error."""
        return any(d.severity is Severity.ERROR for d in self.diagnostics)

    def ok(self, strict: bool = False) -> bool:
        """True when the design passes: no errors (strict: no warnings)."""
        if strict:
            return not self.diagnostics or all(
                d.severity is Severity.INFO for d in self.diagnostics)
        return not self.has_errors

    def sorted(self) -> list[Diagnostic]:
        """Findings under a total order: severity, layer, code, location.

        Message and hint break any remaining ties, so two runs over the
        same design always render in exactly the same order.
        """
        return sorted(self.diagnostics,
                      key=lambda d: (d.severity.rank, d.layer, d.code,
                                     d.location, d.message, d.hint))

    # ------------------------------------------------------------------
    def summary(self) -> str:
        """Headline counts, e.g. ``"2 errors, 1 warning"``."""
        parts = []
        for label, found in (("error", self.errors()),
                             ("warning", self.warnings()),
                             ("info", self.infos())):
            if found:
                plural = "s" if len(found) != 1 else ""
                parts.append(f"{len(found)} {label}{plural}")
        return ", ".join(parts) if parts else "no problems"

    def to_dict(self) -> dict:
        """JSON-serialisable form of the whole report."""
        return {
            "diagnostics": [d.to_dict() for d in self.sorted()],
            "summary": self.summary(),
            "ok": self.ok(),
        }

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"LintReport({self.summary()})"

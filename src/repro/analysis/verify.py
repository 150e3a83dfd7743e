"""One-call whole-design verification: the equivalence certificate.

:func:`analyze_design` runs the ``analysis`` lint layer over a design
point and packages the certificate it computed into an
:class:`AnalysisResult`.

Lint is imported inside the function: the analysis core must stay
importable from the lint rule module without a cycle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .equivalence import EquivalenceCertificate

if TYPE_CHECKING:  # pragma: no cover - type-only import, avoids a cycle
    from ..lint.diagnostic import LintReport


@dataclass
class AnalysisResult:
    """The outcome of analysing one design point.

    Attributes:
        name: design name.
        report: the ``analysis``-layer lint report (EQV findings).
        certificate: the symbolic equivalence certificate, or None when
            the design is not certifiable (incomplete schedule/binding).
    """

    name: str
    report: "LintReport"
    certificate: Optional[EquivalenceCertificate] = None

    @property
    def ok(self) -> bool:
        """True when the analysis produced no error-severity finding."""
        return self.report.ok()

    @property
    def verified(self) -> bool:
        """Strongest verdict: no error finding *and* a valid certificate."""
        return (self.ok and self.certificate is not None
                and self.certificate.valid)

    def summary(self) -> str:
        """One line, e.g. ``"ex: certificate valid"``."""
        if self.certificate is None:
            cert = "no certificate"
        elif self.certificate.valid:
            cert = "certificate valid"
        else:
            cert = f"{len(self.certificate.divergences)} divergences"
        return f"{self.name}: {cert}"


def analyze_design(design) -> AnalysisResult:
    """Certify that a design point computes its DFG's behaviour.

    Args:
        design: a :class:`repro.etpn.design.Design` point.

    The analysis itself never raises on a bad design — every problem
    becomes a diagnostic in ``result.report`` (derivation failures are
    ``LNT001``).
    """
    from ..lint.registry import LintContext
    from ..lint.rules_analysis import cached_certificate
    from ..lint.runner import run_analysis_layer

    ctx = LintContext(name=design.dfg.name, dfg=design.dfg,
                      steps=design.steps, binding=design.binding)
    report = run_analysis_layer(ctx)
    return AnalysisResult(name=design.dfg.name, report=report,
                          certificate=cached_certificate(ctx))

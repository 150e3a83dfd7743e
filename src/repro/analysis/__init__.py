"""repro.analysis — whole-design static analysis of ETPN designs.

:func:`certify` is a symbolic value-flow certifier that executes the
scheduled + bound data path control step by control step and proves
every DFG output computes the original behavioural expression
(``EQV0xx`` lint rules on divergence) — the paper's claim that merger
transformations are semantics-preserving, checked per design point.
:func:`analyze_design` bundles it for one design point; the
``repro-hlts analyze`` CLI subcommand and the ``analysis`` lint layer
both go through it.
"""

from .equivalence import (COMMUTATIVE, Divergence, EquivalenceCertificate,
                          ValueNumbering, certify)
from .verify import AnalysisResult, analyze_design

__all__ = [
    "AnalysisResult",
    "COMMUTATIVE",
    "Divergence",
    "EquivalenceCertificate",
    "ValueNumbering",
    "analyze_design",
    "certify",
]

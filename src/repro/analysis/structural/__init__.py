"""repro.analysis.structural — enumeration-free net analysis.

The *fast tier* of the concurrency analysis: where
:class:`~repro.petri.reachability.ReachabilityGraph` walks the
marking space (exponential in the worst case, and the first victim of
an exhausted :class:`~repro.runtime.budget.Budget`), the engines here
answer from the incidence matrix alone —

* :class:`IncidenceMatrix` — the ``C = Post - Pre`` linear-algebra view
  of a :class:`~repro.petri.net.PetriNet`;
* :func:`p_semiflows` / :func:`t_semiflows` — minimal P/T-invariant
  bases by fraction-free Farkas elimination;
* :func:`minimal_siphons` / :func:`maximal_trap` — the siphon/trap
  structure behind Commoner's deadlock condition;
* :func:`structural_certificate` — the bundled, independently
  checkable :class:`StructuralCertificate` with three-valued
  :class:`Verdict` fields for safety, boundedness, conservation,
  dead transitions and (termination-aware) deadlock-freedom.

The two-tier dispatcher (:mod:`repro.analysis.tiers`) consults these
certificates first and only falls back to reachability enumeration
when a verdict is :attr:`Verdict.INCONCLUSIVE`.
"""

from .certificate import (Invariant, SiphonWitness, StructuralCertificate,
                          Verdict, structural_certificate)
from .incidence import RESET_PREFIX, IncidenceMatrix
from .invariants import (DEFAULT_MAX_ROWS, p_semiflows, semiflows,
                         t_semiflows)
from .siphons import (DEFAULT_MAX_NODES, DEFAULT_MAX_SIPHONS, is_siphon,
                      is_trap, maximal_trap, minimal_siphons)

__all__ = [
    "DEFAULT_MAX_NODES",
    "DEFAULT_MAX_ROWS",
    "DEFAULT_MAX_SIPHONS",
    "IncidenceMatrix",
    "Invariant",
    "RESET_PREFIX",
    "SiphonWitness",
    "StructuralCertificate",
    "Verdict",
    "is_siphon",
    "is_trap",
    "maximal_trap",
    "minimal_siphons",
    "p_semiflows",
    "semiflows",
    "structural_certificate",
    "t_semiflows",
]

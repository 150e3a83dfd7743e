"""repro.analysis — whole-design static analysis of ETPN designs.

Four analyses that together prove (or refute) the paper's claim that
merger transformations are semantics-preserving:

* :class:`ReachabilityGraph` — the reachable markings of the control
  part, each visited once; it lives in :mod:`repro.petri.reachability`
  next to the nets it explores (the critical-path extractor walks it
  too) and is re-exported here as the enumerative tier;
* :mod:`repro.analysis.structural` — the enumeration-free tier:
  P/T-invariants, siphons/traps and the bundled
  :class:`~repro.analysis.structural.StructuralCertificate` proving
  safety, conservation and deadlock-freedom in polynomial time;
* :class:`MHPAnalysis` / :class:`ConcurrencyAnalysis` — the
  may-happen-in-parallel relation over places, transitions and bound
  operations, joined against the binding to detect control-level races
  (``RAC0xx`` lint rules); degrades to a *sound over-approximation*
  built from the structural certificate when the enumeration budget
  drains;
* :func:`certify` — a symbolic value-flow certifier that executes the
  scheduled + bound data path control step by control step and proves
  every DFG output computes the original behavioural expression
  (``EQV0xx`` lint rules on divergence).

:class:`TieredAnalysis` dispatches safety/deadlock questions structure-
first with enumerative fallback, and :func:`cross_check` asserts the
two tiers agree.  :func:`analyze_design` bundles everything for one
design point; the ``repro-hlts analyze`` CLI subcommand, the
``analysis`` lint layer and ``SynthesisParams(verify_mergers=True)``
all go through it.

:mod:`repro.analysis.timing` extends the family below the RTL:
:func:`analyze_timing` runs deterministic static timing analysis over
the expanded gate netlist (arrivals, slack, false-path pruning,
incremental :class:`ConeCache`), the ``timing`` lint layer and
``repro-hlts timing`` expose it, and
``SynthesisParams(check_timing=True)`` gates module mergers on
:func:`merged_module_fits`.
"""

from ..petri.reachability import GraphEdge, ReachabilityGraph, UnsafeFiring
from .dataflow import (AbstractValue, DataflowCertificate, analyze_dataflow,
                       infer_feedback)
from .equivalence import (COMMUTATIVE, Divergence, EquivalenceCertificate,
                          ValueNumbering, certify)
from .mhp import MHPAnalysis
from .races import ConcurrencyAnalysis, RaceFinding
from .structural import (Invariant, SiphonWitness, StructuralCertificate,
                         Verdict, structural_certificate)
from .tiers import (Tier, TierDecision, TieredAnalysis, cross_check,
                    stuck_markings)
from .timing import (ConeCache, DEFAULT_TABLE, DelayTable, TimingReport,
                     analyze_timing, default_period, merged_module_fits)
from .verify import AnalysisResult, analyze_design, merger_preserves_semantics

__all__ = [
    "AbstractValue",
    "AnalysisResult",
    "COMMUTATIVE",
    "ConeCache",
    "DEFAULT_TABLE",
    "DelayTable",
    "TimingReport",
    "ConcurrencyAnalysis",
    "DataflowCertificate",
    "Divergence",
    "EquivalenceCertificate",
    "GraphEdge",
    "Invariant",
    "MHPAnalysis",
    "RaceFinding",
    "ReachabilityGraph",
    "SiphonWitness",
    "StructuralCertificate",
    "Tier",
    "TierDecision",
    "TieredAnalysis",
    "UnsafeFiring",
    "ValueNumbering",
    "Verdict",
    "analyze_dataflow",
    "analyze_design",
    "analyze_timing",
    "certify",
    "cross_check",
    "default_period",
    "infer_feedback",
    "merged_module_fits",
    "merger_preserves_semantics",
    "stuck_markings",
    "structural_certificate",
]

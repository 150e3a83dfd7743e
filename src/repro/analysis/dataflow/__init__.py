"""repro.analysis.dataflow — abstract-interpretation value analysis.

A forward fixpoint over the DFG on the product lattice of unsigned
intervals and known bits (:mod:`~repro.analysis.dataflow.domain`), with
loop-carried feedback and widening
(:mod:`~repro.analysis.dataflow.engine`), packaged as an independently
re-checkable :class:`~repro.analysis.dataflow.certificate.
DataflowCertificate`.  Two layers consume the facts: width narrowing
in :mod:`repro.cost.narrow` and the ``DFA0xx`` lint rules.  The
untestable-fault pruning in :mod:`repro.atpg.prune` does not: it runs
its own gate-level ternary propagation (:mod:`repro.gates.ternary`).
"""

from .certificate import CERT_FORMAT, DataflowCertificate
from .domain import AbstractValue, join, reduce, transfer, widen
from .engine import (MAX_ITERATIONS, WIDEN_DELAY, analyze_dataflow,
                     infer_feedback, input_assumptions)

__all__ = [
    "AbstractValue",
    "CERT_FORMAT",
    "DataflowCertificate",
    "MAX_ITERATIONS",
    "WIDEN_DELAY",
    "analyze_dataflow",
    "infer_feedback",
    "input_assumptions",
    "join",
    "reduce",
    "transfer",
    "widen",
]

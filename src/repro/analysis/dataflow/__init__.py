"""repro.analysis.dataflow — the word-level abstract value domain.

:mod:`~repro.analysis.dataflow.domain` is the product lattice of
unsigned intervals and known bits, with sound transfer functions for
every DFG operation kind.  Nothing else in the package reads it: the
fixpoint engine, the certificate, width narrowing and the ``DFA0xx``
lint rules that were built on it are retired, and ROADMAP lists the
domain's own removal.  The untestable-fault pruning in
:mod:`repro.atpg.prune` runs its own gate-level ternary propagation
(:mod:`repro.gates.ternary`).
"""

from .domain import AbstractValue, join, reduce, transfer, widen

__all__ = [
    "AbstractValue",
    "join",
    "reduce",
    "transfer",
    "widen",
]

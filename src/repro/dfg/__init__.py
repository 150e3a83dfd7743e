"""Data-flow graph core: the behavioural input to every synthesis flow."""

from .builder import DFGBuilder
from .graph import Const, DFG, DependenceEdge, Operation, Variable
from .lifetime import Lifetime, variable_lifetimes
from .ops import OpKind, UnitClass, is_comparison, unit_class
from .validate import validate_dfg

__all__ = [
    "Const",
    "DFG",
    "DFGBuilder",
    "DependenceEdge",
    "Lifetime",
    "OpKind",
    "Operation",
    "UnitClass",
    "Variable",
    "is_comparison",
    "unit_class",
    "validate_dfg",
    "variable_lifetimes",
]

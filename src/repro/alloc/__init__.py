"""Allocation: bindings, left-edge and connectivity-based allocators."""

from .binding import (Binding, default_binding, module_unit_class,
                      validate_binding)
from .left_edge import left_edge, testability_left_edge
from .module_alloc import connectivity_module_binding, min_module_binding

__all__ = [
    "Binding",
    "connectivity_module_binding",
    "default_binding",
    "left_edge",
    "min_module_binding",
    "module_unit_class",
    "testability_left_edge",
    "validate_binding",
]

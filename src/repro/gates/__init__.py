"""Gate-level substrate: netlists, bit-width expansion and simulation."""

from .expand import expand_to_gates, expand_with_controller
from .netlist import Gate, GateNetlist, GateType
from .prune import observable_gates, prune_unobservable
from .verilog import netlist_to_verilog
from .simulate import FULL, CompiledCircuit

__all__ = [
    "FULL",
    "CompiledCircuit",
    "Gate",
    "GateNetlist",
    "GateType",
    "expand_to_gates",
    "expand_with_controller",
    "netlist_to_verilog",
    "observable_gates",
    "prune_unobservable",
]

"""The ETPN design representation: a data path plus its control part.

The paper's Extended Timed Petri Net pairs the data path with a timed
Petri-net control part.  For this HDL (straight-line code plus at most
one ``loop while``) that control part is always a chain of control
steps, so a :class:`Design` holds it as its schedule plus the DFG's loop
condition: :func:`repro.rtl.controller.build_control_table` drives one
phase per step, and the loop condition leaves the data path as a
``cond_`` status port (DESIGN.md §8).
"""

from .datapath import DataPath, DataPathArc, DataPathNode, NodeKind
from .design import Design
from .from_dfg import default_design

__all__ = [
    "DataPath",
    "DataPathArc",
    "DataPathNode",
    "Design",
    "NodeKind",
    "default_design",
]

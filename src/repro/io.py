"""JSON serialisation of DFGs and design points.

``export --what json`` prints a design (DFG + schedule + binding) in
this form.  The format is deliberately plain: a dict with a ``format``
tag holding names, kinds and numbers only, so files survive internal
refactorings.
"""

from __future__ import annotations

from .dfg import DFG
from .dfg.graph import Const
from .etpn.design import Design

FORMAT_DFG = "repro-dfg-v1"
FORMAT_DESIGN = "repro-design-v1"


def dfg_to_dict(dfg: DFG) -> dict:
    """Serialise a DFG to plain data."""
    return {
        "format": FORMAT_DFG,
        "name": dfg.name,
        "inputs": [v.name for v in dfg.inputs()],
        "outputs": [v.name for v in dfg.outputs()],
        "loop_condition": dfg.loop_condition,
        "operations": [
            {
                "id": op.op_id,
                "kind": op.kind.name,
                "dst": op.dst,
                "srcs": [{"const": s.value} if isinstance(s, Const)
                         else {"var": s} for s in op.srcs],
            }
            for op in dfg
        ],
    }


def design_to_dict(design: Design) -> dict:
    """Serialise a complete design point (DFG + schedule + binding)."""
    return {
        "format": FORMAT_DESIGN,
        "label": design.label,
        "dfg": dfg_to_dict(design.dfg),
        "steps": dict(sorted(design.steps.items())),
        "module_of": dict(sorted(design.binding.module_of.items())),
        "register_of": dict(sorted(design.binding.register_of.items())),
    }

"""JSON serialisation of DFGs and design points.

``export --what json`` prints a design (schedule + binding) in this
form, and the result cache keys synthesis on a DFG's form and stores
the synthesised design in it.

The format is deliberately plain: a dict with a ``format`` tag, fully
reconstructable through the public builder APIs, so files survive
internal refactorings.
"""

from __future__ import annotations

from .alloc.binding import Binding
from .dfg import DFG, DFGBuilder
from .dfg.graph import Const
from .errors import ReproError
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


def dfg_from_dict(data: dict) -> DFG:
    """Rebuild a DFG serialised by :func:`dfg_to_dict`."""
    from .dfg.ops import OpKind

    if data.get("format") != FORMAT_DFG:
        raise ReproError(f"not a {FORMAT_DFG} document: "
                         f"{data.get('format')!r}")
    builder = DFGBuilder(data["name"])
    builder.inputs(*data["inputs"])
    for op in data["operations"]:
        srcs = [s["const"] if "const" in s else s["var"]
                for s in op["srcs"]]
        builder.op(op["id"], OpKind[op["kind"]], op["dst"], *srcs)
    builder.outputs(*data["outputs"])
    if data.get("loop_condition"):
        builder.loop(data["loop_condition"])
    return builder.build()


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


def design_from_dict(data: dict) -> Design:
    """Rebuild (and validate) a design serialised by
    :func:`design_to_dict`."""
    if data.get("format") != FORMAT_DESIGN:
        raise ReproError(f"not a {FORMAT_DESIGN} document: "
                         f"{data.get('format')!r}")
    dfg = dfg_from_dict(data["dfg"])
    binding = Binding(dict(data["module_of"]), dict(data["register_of"]))
    design = Design(dfg, {k: int(v) for k, v in data["steps"].items()},
                    binding, label=data.get("label", ""))
    design.validate()
    return design

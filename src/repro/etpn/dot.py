"""Graphviz (dot) export of data paths.

For inspection and documentation: ``dot -Tsvg`` renders the data-path
structure the paper's figures sketch.  Pure text generation — no
graphviz dependency.
"""

from __future__ import annotations

from .datapath import DataPath, NodeKind

_SHAPE = {
    NodeKind.PORT_IN: "invtriangle",
    NodeKind.PORT_OUT: "triangle",
    NodeKind.REGISTER: "box",
    NodeKind.MODULE: "ellipse",
    NodeKind.CONST: "plaintext",
    NodeKind.COND: "diamond",
}


def datapath_to_dot(datapath: DataPath) -> str:
    """The data path as a dot digraph (registers boxed, units oval)."""
    lines = [f'digraph "{datapath.dfg.name}" {{',
             "  rankdir=TB;",
             '  node [fontname="Helvetica"];']
    for node in sorted(datapath.nodes.values(), key=lambda n: n.node_id):
        label = node.node_id
        if node.kind == NodeKind.MODULE:
            label += "\\n" + ",".join(node.ops)
        elif node.kind == NodeKind.REGISTER:
            label += "\\n" + ",".join(node.variables)
        lines.append(f'  "{node.node_id}" [shape={_SHAPE[node.kind].strip()}'
                     f', label="{label}"];')
    for arc in datapath.arcs:
        style = ' [style=dashed]' if arc.is_condition else ""
        lines.append(f'  "{arc.src}" -> "{arc.dst}"{style};')
    lines.append("}")
    return "\n".join(lines)


"""Structural Verilog export of gate netlists.

Emits a flat, synthesisable Verilog-2001 module using primitive gate
instantiations and always-block flip-flops, so a design produced by
this library can be taken to any commercial or open-source tool
(iverilog, Yosys, a simulator) for independent verification.
"""

from __future__ import annotations

import re

from ..errors import NetlistError
from .netlist import GateNetlist, GateType

_PRIMITIVES = {
    GateType.AND: "and", GateType.OR: "or", GateType.NAND: "nand",
    GateType.NOR: "nor", GateType.XOR: "xor", GateType.XNOR: "xnor",
    GateType.NOT: "not", GateType.BUF: "buf",
}


def _escape(name: str) -> str:
    """Make an arbitrary signal name Verilog-safe."""
    if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_$]*", name):
        return name
    return "\\" + name + " "   # escaped identifier (note trailing space)


def netlist_to_verilog(netlist: GateNetlist) -> str:
    """Render the netlist as one structural Verilog module, named after
    the netlist (non-word characters become ``_``).

    Flip-flops become a single positive-edge always block with an
    asynchronous active-high ``rst`` (reset to 0 — matching the
    simulator's and ATPG's all-zero initial state).
    """
    netlist.check_complete()
    module_name = re.sub(r"\W", "_", netlist.name)
    inputs = sorted(netlist.inputs)
    outputs = sorted(netlist.outputs)
    dffs = netlist.dffs()

    lines = [f"// Generated by repro from netlist {netlist.name!r}",
             f"// {netlist.stats()}",
             f"module {module_name} ("]
    ports = ["clk", "rst"] + [_escape(n) for n in inputs] \
        + [_escape(n) for n in outputs]
    lines.append("    " + ",\n    ".join(ports))
    lines.append(");")
    lines.append("  input clk, rst;")
    for name in inputs:
        lines.append(f"  input {_escape(name)};")
    for name in outputs:
        lines.append(f"  output {_escape(name)};")
    lines.append("")

    def wire(gid: int) -> str:
        return f"n{gid}"

    for gate in netlist.gates:
        if gate.gtype == GateType.DFF:
            lines.append(f"  reg {wire(gate.gid)};  // {gate.name}")
        else:
            lines.append(f"  wire {wire(gate.gid)};")
    lines.append("")

    for name, gid in sorted(netlist.inputs.items()):
        lines.append(f"  assign {wire(gid)} = {_escape(name)};")
    for gate in netlist.gates:
        if gate.gtype == GateType.CONST0:
            lines.append(f"  assign {wire(gate.gid)} = 1'b0;")
        elif gate.gtype == GateType.CONST1:
            lines.append(f"  assign {wire(gate.gid)} = 1'b1;")
        elif gate.gtype in _PRIMITIVES:
            fanins = ", ".join(wire(f) for f in gate.fanins)
            lines.append(f"  {_PRIMITIVES[gate.gtype]} "
                         f"g{gate.gid} ({wire(gate.gid)}, {fanins});")
        elif gate.gtype in (GateType.INPUT, GateType.DFF):
            pass
        else:  # pragma: no cover - enum exhaustive
            raise NetlistError(f"cannot emit {gate.gtype}")
    lines.append("")

    if dffs:
        lines.append("  always @(posedge clk or posedge rst) begin")
        lines.append("    if (rst) begin")
        for gate in dffs:
            lines.append(f"      {wire(gate.gid)} <= 1'b0;")
        lines.append("    end else begin")
        for gate in dffs:
            lines.append(f"      {wire(gate.gid)} <= "
                         f"{wire(gate.fanins[0])};")
        lines.append("    end")
        lines.append("  end")
        lines.append("")

    for name, gid in sorted(netlist.outputs.items()):
        lines.append(f"  assign {_escape(name)} = {wire(gid)};")
    lines.append("endmodule")
    return "\n".join(lines)

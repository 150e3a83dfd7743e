"""Gate-level netlists.

A :class:`GateNetlist` is a flat list of gates with integer ids, chosen
for simulation speed: the compiled simulator turns the netlist into
straight-line Python over 64-bit integer bit vectors (one bit lane per
pattern or per fault machine).

Gate types: the basic combinational set plus DFF (positive-edge
register bit) and the constant/input pseudo-gates.  Per the paper's
methodology, the controller is assumed modifiable for test (§1), so
control signals (mux selects, load enables, ALU op selects) enter the
netlist as primary inputs and the data path's registers are the only
state.

:meth:`GateNetlist.add` only accepts fanins that already exist, so gid
order is a topological order of the combinational logic; DFF D inputs,
connected after the fact, close the sequential feedback.  The ternary
pass (:func:`repro.gates.ternary.propagate`) values a whole netlist in
one pass in that order, and :func:`in_topological_order` tells when a
netlist written around the API has broken it.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import NetlistError


class GateType(enum.Enum):
    """Supported gate types."""

    INPUT = "input"
    CONST0 = "const0"
    CONST1 = "const1"
    BUF = "buf"
    NOT = "not"
    AND = "and"
    OR = "or"
    NAND = "nand"
    NOR = "nor"
    XOR = "xor"
    XNOR = "xnor"
    DFF = "dff"


#: Types with no fanins.
SOURCE_TYPES = frozenset({GateType.INPUT, GateType.CONST0, GateType.CONST1})
#: Types with exactly one fanin.
UNARY_TYPES = frozenset({GateType.BUF, GateType.NOT, GateType.DFF})

# Members bound once for identity tests: a set lookup hashes the member
# through the Python-level ``Enum.__hash__``, once per gate added.
_INPUT, _CONST0, _CONST1, _BUF, _NOT, _DFF = (
    GateType.INPUT, GateType.CONST0, GateType.CONST1, GateType.BUF,
    GateType.NOT, GateType.DFF)


@dataclass(frozen=True)
class Gate:
    """One gate: an output net driven by ``gtype`` over ``fanins``."""

    gid: int
    gtype: GateType
    fanins: tuple[int, ...]
    name: str = ""


class GateNetlist:
    """A flat gate-level netlist with named primary I/O."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.gates: list[Gate] = []
        #: Primary input name -> gate id (GateType.INPUT).
        self.inputs: dict[str, int] = {}
        #: Primary output name -> driving gate id.
        self.outputs: dict[str, int] = {}

    # ------------------------------------------------------------------
    def add(self, gtype: GateType, fanins: tuple[int, ...] = (),
            name: str = "") -> int:
        """Append a gate and return its id."""
        if gtype is _INPUT or gtype is _CONST0 or gtype is _CONST1:
            if fanins:
                raise NetlistError(f"{gtype} takes no fanins")
        elif gtype is _BUF or gtype is _NOT or gtype is _DFF:
            if len(fanins) != 1:
                raise NetlistError(f"{gtype} takes exactly one fanin")
        elif not fanins:
            raise NetlistError(f"{gtype} needs fanins")
        for fin in fanins:
            if not (0 <= fin < len(self.gates)):
                raise NetlistError(f"fanin {fin} does not exist yet "
                                   f"(gates are added in topological order)")
        gid = len(self.gates)
        self.gates.append(Gate(gid, gtype, tuple(fanins), name))
        return gid

    def add_input(self, name: str) -> int:
        """Declare a primary input bit."""
        if name in self.inputs:
            raise NetlistError(f"duplicate input {name!r}")
        gid = self.add(GateType.INPUT, name=name)
        self.inputs[name] = gid
        return gid

    def add_dff(self, name: str = "") -> int:
        """Create a state bit whose D input is connected later.

        DFF Q outputs are usable immediately (reads of last cycle's
        state); :meth:`connect_dff` closes the feedback once the D-side
        logic exists.
        """
        gid = len(self.gates)
        self.gates.append(Gate(gid, GateType.DFF, (), name))
        return gid

    def connect_dff(self, gid: int, d_input: int) -> None:
        """Connect the D input of a DFF created by :meth:`add_dff`."""
        gate = self.gates[gid]
        if gate.gtype != GateType.DFF:
            raise NetlistError(f"gate {gid} is not a DFF")
        if gate.fanins:
            raise NetlistError(f"DFF {gid} already connected")
        if not (0 <= d_input < len(self.gates)):
            raise NetlistError(f"DFF {gid}: unknown D driver {d_input}")
        self.gates[gid] = Gate(gid, GateType.DFF, (d_input,), gate.name)

    def check_complete(self) -> None:
        """Raise NetlistError on floating DFFs or combinational cycles.

        Floating-DFF detection delegates to the shared lint-rule
        implementation (``GAT001``) and reports every floating DFF, not
        just the first; cycle detection shares
        :func:`combinational_cycle` with rule ``GAT002`` and reports the
        offending gate ids.
        """
        from ..lint.rules_gates import floating_dffs
        floating = floating_dffs(self)
        if floating:
            detail = "; ".join(f"DFF {g.gid} ({g.name!r}) has no D input"
                               for g in floating)
            raise NetlistError(f"{self.name}: {detail}")
        cycle = combinational_cycle(self)
        if cycle:
            chain = " -> ".join(str(g) for g in cycle)
            raise NetlistError(f"{self.name}: combinational cycle through "
                               f"gates {chain}")

    def set_output(self, name: str, gid: int) -> None:
        """Declare a primary output bit driven by gate ``gid``."""
        if name in self.outputs:
            raise NetlistError(f"duplicate output {name!r}")
        if not (0 <= gid < len(self.gates)):
            raise NetlistError(f"output {name!r} driven by unknown gate")
        self.outputs[name] = gid

    # ------------------------------------------------------------------
    def dffs(self) -> list[Gate]:
        """All state elements, in id order."""
        dff = GateType.DFF
        return [g for g in self.gates if g.gtype is dff]

    def combinational_count(self) -> int:
        """Number of combinational (non-source, non-DFF) gates."""
        return sum(1 for g in self.gates
                   if not (g.gtype is _INPUT or g.gtype is _CONST0
                           or g.gtype is _CONST1 or g.gtype is _DFF))

    def stats(self) -> dict[str, int]:
        """Headline sizes used by reports and tests."""
        return {
            "gates": len(self.gates),
            "combinational": self.combinational_count(),
            "dffs": len(self.dffs()),
            "inputs": len(self.inputs),
            "outputs": len(self.outputs),
        }

    def __len__(self) -> int:
        return len(self.gates)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.stats()
        return (f"GateNetlist({self.name!r}, {s['gates']} gates, "
                f"{s['dffs']} dffs, {s['inputs']} PIs, {s['outputs']} POs)")


def in_topological_order(netlist: GateNetlist) -> bool:
    """Does every combinational fanin precede the gate that reads it?

    :meth:`GateNetlist.add` guarantees it, so gid order is a
    topological order and one pass in gid order values every gate after
    its fanins (:func:`repro.gates.ternary.propagate`).  DFF D inputs
    are exempt: they close the sequential feedback, which a
    combinational pass never follows.  Only gates written into
    ``gates`` directly can break the order.
    """
    dff = GateType.DFF
    for gate in netlist.gates:
        for fin in gate.fanins:
            if fin >= gate.gid and gate.gtype is not dff:
                return False
    return True


def check_topological_order(netlist: GateNetlist) -> None:
    """Raise NetlistError unless :func:`in_topological_order` holds.

    The builders that translate a netlist gate by gate in gid order
    (time-frame expansion, the compiled simulator) call it next to
    :meth:`GateNetlist.check_complete`: on an acyclic netlist whose gids
    are out of order they would otherwise read a gate before it exists.
    """
    if in_topological_order(netlist):
        return
    gate = next(g for g in netlist.gates
                if g.gtype is not _DFF and any(f >= g.gid for f in g.fanins))
    raise NetlistError(f"{netlist.name}: gate {gate.gid} reads a later gate "
                       f"({max(gate.fanins)}); gid order must be "
                       f"topological, as GateNetlist.add builds it")


def combinational_cycle(netlist: GateNetlist) -> list[int]:
    """One combinational cycle as a gate-id list, or [] when none exists.

    Edges run from fanin to gate; DFFs break feedback loops, so edges
    into a DFF's D input are excluded.  :meth:`GateNetlist.add` cannot
    create a cycle (fanins must already exist), so this only fires on
    netlists assembled or transformed by other means — which is exactly
    where :meth:`GateNetlist.check_complete` and lint rule ``GAT002``
    (which both share this function) need it.
    """
    if in_topological_order(netlist):
        return []
    n = len(netlist.gates)
    white, grey, black = 0, 1, 2
    colour = [white] * n
    for root in range(n):
        if colour[root] != white:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        colour[root] = grey
        path = [root]
        while stack:
            gid, idx = stack[-1]
            gate = netlist.gates[gid]
            fanins = (() if gate.gtype is GateType.DFF else
                      tuple(f for f in gate.fanins if 0 <= f < n))
            if idx < len(fanins):
                stack[-1] = (gid, idx + 1)
                child = fanins[idx]
                if colour[child] == grey:
                    return path[path.index(child):] + [child]
                if colour[child] == white:
                    colour[child] = grey
                    stack.append((child, 0))
                    path.append(child)
            else:
                colour[gid] = black
                stack.pop()
                path.pop()
    return []

"""Time-frame expansion: a combinational view of k clock cycles.

The deterministic phase targets a fault in the unrolled model: every
frame is a copy of the combinational logic, frame f's flip-flop outputs
are buffers of frame f-1's D inputs, and frame 0 starts from the reset
(all-zero) state — the same convention the fault simulator uses.  DFF
outputs become explicit BUF nodes in every frame so that state-bit
stuck-at faults have an injection site per frame.

The model is frame-major: uid 0 is the reset constant and gate ``gid``
of frame ``f`` is uid ``1 + f*n + gid`` in an ``n``-gate netlist.
:func:`unroll` stamps every frame from one one-frame template at its
uid offset.  No line reads a later frame, so the first ``k`` frames of
a ``K``-frame model are the ``k``-frame model, except that the lines
of frame ``k - 1`` also feed frame ``k``'s DFF buffers;
:meth:`UnrolledCircuit.prefix` cuts those fanouts off and serves the
smaller rungs of the ATPG frame ladder from one unrolled model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..gates.netlist import GateNetlist, GateType, check_topological_order

#: Small-int gate codes used by the PODEM arrays.
OP_CONST0, OP_CONST1, OP_PI, OP_BUF, OP_NOT, OP_AND, OP_OR, OP_NAND, \
    OP_NOR, OP_XOR, OP_XNOR = range(11)

_CODE = {
    GateType.CONST0: OP_CONST0, GateType.CONST1: OP_CONST1,
    GateType.INPUT: OP_PI, GateType.BUF: OP_BUF, GateType.NOT: OP_NOT,
    GateType.AND: OP_AND, GateType.OR: OP_OR, GateType.NAND: OP_NAND,
    GateType.NOR: OP_NOR, GateType.XOR: OP_XOR, GateType.XNOR: OP_XNOR,
}


@dataclass
class UnrolledCircuit:
    """Flattened combinational model of ``frames`` cycles."""

    frames: int
    ops: list[int] = field(default_factory=list)
    fanins: list[tuple[int, ...]] = field(default_factory=list)
    fanouts: list[list[int]] = field(default_factory=list)
    #: Free primary inputs: uid -> (frame, input name).
    pi_names: dict[int, tuple[int, str]] = field(default_factory=dict)
    #: Observed outputs: uid -> (frame, output name).
    po_names: dict[int, tuple[int, str]] = field(default_factory=dict)
    #: Original gate id -> one uid per frame (fault-injection sites).
    site_uids: dict[int, list[int]] = field(default_factory=dict)
    #: Logic depth per uid (0 for sources) — backtrace guidance.
    depth: list[int] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.ops)

    def po_set(self) -> set[int]:
        return set(self.po_names)

    def prefix(self, frames: int) -> UnrolledCircuit:
        """The model of the first ``frames`` frames of this one.

        It equals ``unroll(netlist, frames)`` field by field.  Its lists
        are slices of this model's; the fanout lists of every frame but
        the last are shared with it, so neither model may be mutated.
        """
        if not 1 <= frames <= self.frames:
            raise ValueError(f"a {self.frames}-frame model has no "
                             f"{frames}-frame prefix")
        if frames == self.frames:
            return self
        n = (self.size - 1) // self.frames
        last, limit = 1 + (frames - 1) * n, 1 + frames * n
        # A line of the last frame also feeds the next frame's DFF
        # buffers, which sit past the limit at the end of its sorted
        # fanout list.
        fanouts = self.fanouts[:last]
        fanouts += [[uid for uid in outs if uid < limit]
                    for outs in self.fanouts[last:limit]]
        return UnrolledCircuit(
            frames, ops=self.ops[:limit], fanins=self.fanins[:limit],
            fanouts=fanouts,
            pi_names={uid: name for uid, name in self.pi_names.items()
                      if uid < limit},
            po_names={uid: name for uid, name in self.po_names.items()
                      if uid < limit},
            site_uids={gid: uids[:frames]
                       for gid, uids in self.site_uids.items()},
            depth=self.depth[:limit])


def unroll(netlist: GateNetlist, frames: int) -> UnrolledCircuit:
    """Build the ``frames``-cycle combinational expansion.

    Gate ``gid`` of frame ``f`` becomes uid ``1 + f*n + gid``: each
    frame is the one-frame template below shifted by ``f*n``.  The
    stamping relies on gid order being topological, which
    :func:`check_topological_order` enforces.
    """
    netlist.check_complete()
    check_topological_order(netlist)
    gates = netlist.gates
    n = len(gates)
    dff = GateType.DFF

    # The template, by gid, in offsets from its frame's first uid: the
    # fanins (a DFF's is its D driver one frame back; in frame 0 the
    # reset constant, uid 0), and the fanouts with and without the next
    # frame's DFF buffers.
    first_fanins: list[tuple[int, ...]] = []
    next_fanins: list[tuple[int, ...]] = []
    same_frame: list[list[int]] = [[] for _ in range(n)]
    next_frame: list[list[int]] = [[] for _ in range(n)]
    for gate in gates:
        if gate.gtype is dff:
            driver = gate.fanins[0]
            first_fanins.append((-1,))
            next_fanins.append((driver - n,))
            next_frame[driver].append(n + gate.gid)
        else:
            first_fanins.append(gate.fanins)
            next_fanins.append(gate.fanins)
            for fin in gate.fanins:
                same_frame[fin].append(gate.gid)
    linked = [same + later for same, later in zip(same_frame, next_frame)]
    frame_ops = [OP_BUF if gate.gtype is dff else _CODE[gate.gtype]
                 for gate in gates]
    comb = [(gate.gid, gate.fanins) for gate in gates
            if gate.fanins and gate.gtype is not dff]
    dffs = [(gate.gid, gate.fanins[0]) for gate in gates
            if gate.gtype is dff]

    model = UnrolledCircuit(frames)
    model.ops = [OP_CONST0] + frame_ops * frames
    fanins = model.fanins
    fanouts = model.fanouts
    depth = model.depth
    fanins.append(())
    fanouts.append([1 + gid for gid, _ in dffs] if frames else [])
    depth.append(0)
    inputs = sorted((gid, name) for name, gid in netlist.inputs.items())
    outputs = list(netlist.outputs.items())
    level: list[int] = []
    for frame in range(frames):
        base = 1 + frame * n
        template = next_fanins if frame else first_fanins
        fanins += [tuple([base + fin for fin in fins]) for fins in template]
        outs = linked if frame < frames - 1 else same_frame
        fanouts += [[base + out for out in fouts] for fouts in outs]
        # A DFF buffer is one level above its D driver one frame back
        # (above the reset constant in frame 0); the rest follows in gid
        # order within the frame.
        previous = level
        level = [0] * n
        for gid, driver in dffs:
            level[gid] = 1 + (previous[driver] if frame else 0)
        for gid, fins in comb:
            top = 0
            for fin in fins:
                if level[fin] > top:
                    top = level[fin]
            level[gid] = top + 1
        depth += level
        for gid, name in inputs:
            model.pi_names[base + gid] = (frame, name)
        for name, gid in outputs:
            model.po_names[base + gid] = (frame, name)
    model.site_uids = {gid: list(range(1 + gid, 1 + frames * n, n))
                       for gid in range(n)}
    return model

"""Compiled bit-parallel gate-level simulation.

The netlist is translated into straight-line Python over plain
integers, one function per set of fault-injection sites (cached by the
site tuple); every signal carries independent one-bit *lanes*, as many
as the all-lanes mask ``full`` the caller passes has bits (64 with
:data:`FULL`).  A lane is a pattern (pattern-parallel good simulation)
or a fault machine (parallel-fault simulation: the fault simulator
packs the good machine in lane 0 and up to 4,095 faulty machines in
the rest, injecting each fault only in its own lane through per-site
masks).  A fault simulator asks for one function hooked at every site
of its fault list and reuses it for every group, whatever its width.

Gates are created in topological order (DFF feedback is closed through
the state vector), so evaluation in gate-id order is always correct —
no levelisation pass is needed.  The constructor rejects a netlist
written around :meth:`GateNetlist.add` that breaks that order.
"""

from __future__ import annotations

from typing import Callable

from ..errors import NetlistError
from .netlist import GateNetlist, GateType, check_topological_order

#: All 64 lanes set: the lane width of pattern-parallel simulation.
FULL = (1 << 64) - 1

#: (python expression template, n-ary reduce operator) per gate type.
_BINOPS = {
    GateType.AND: "&",
    GateType.OR: "|",
    GateType.XOR: "^",
}

#: cycle function signature:
#: (pi, state, nmask, fval, full) -> (outs, next_state)
CycleFn = Callable[[list[int], list[int], list[int], list[int], int],
                   tuple[list[int], list[int]]]


class CompiledCircuit:
    """A gate netlist compiled to fast lane-parallel cycle functions."""

    def __init__(self, netlist: GateNetlist) -> None:
        netlist.check_complete()
        check_topological_order(netlist)
        self.netlist = netlist
        #: Primary-input bit names in the order cycle functions expect.
        self.input_names: list[str] = sorted(netlist.inputs)
        #: Primary-output bit names in emission order.
        self.output_names: list[str] = sorted(netlist.outputs)
        #: DFF gate ids in state-vector order.
        self.dff_gids: list[int] = [g.gid for g in netlist.dffs()]
        self._input_gid_to_index = {netlist.inputs[n]: i
                                    for i, n in enumerate(self.input_names)}
        self._dff_gid_to_index = {gid: i
                                  for i, gid in enumerate(self.dff_gids)}
        self._cache: dict[tuple[int, ...], CycleFn] = {}

    @property
    def state_size(self) -> int:
        """Number of state bits."""
        return len(self.dff_gids)

    def zero_state(self) -> list[int]:
        """An all-zero state vector."""
        return [0] * self.state_size

    # ------------------------------------------------------------------
    def cycle_fn(self, fault_sites: tuple[int, ...] = ()) -> CycleFn:
        """A compiled one-cycle function with injection at the sites.

        ``fault_sites`` are gate ids; the returned function applies
        ``v = (v & nmask[k]) | fval[k]`` right after computing site k's
        value, so a caller activates a stuck-at fault in lane ``l`` by
        clearing lane ``l`` of ``nmask[k]`` and setting lane ``l`` of
        ``fval[k]`` to the stuck value; ``nmask[k] = full`` and
        ``fval[k] = 0`` leave the site as computed.  ``full`` has every
        lane set: constants and inversions are computed against it, so
        one function serves every lane width.  Each distinct site set is
        compiled once and cached.
        """
        key = tuple(sorted(fault_sites))
        if key not in self._cache:
            self._cache[key] = self._compile(key)
        return self._cache[key]

    def _compile(self, fault_sites: tuple[int, ...]) -> CycleFn:
        site_index = {gid: k for k, gid in enumerate(fault_sites)}
        lines = ["def _cycle(pi, state, nmask, fval, full):"]
        for gate in self.netlist.gates:
            gid, gtype, fanins = gate.gid, gate.gtype, gate.fanins
            if gtype == GateType.INPUT:
                expr = f"pi[{self._input_gid_to_index[gid]}]"
            elif gtype == GateType.CONST0:
                expr = "0"
            elif gtype == GateType.CONST1:
                expr = "full"
            elif gtype == GateType.DFF:
                expr = f"state[{self._dff_gid_to_index[gid]}]"
            elif gtype == GateType.BUF:
                expr = f"v{fanins[0]}"
            elif gtype == GateType.NOT:
                expr = f"v{fanins[0]} ^ full"
            elif gtype in _BINOPS:
                op = _BINOPS[gtype]
                expr = f" {op} ".join(f"v{f}" for f in fanins)
            elif gtype == GateType.NAND:
                expr = ("(" + " & ".join(f"v{f}" for f in fanins)
                        + ") ^ full")
            elif gtype == GateType.NOR:
                expr = ("(" + " | ".join(f"v{f}" for f in fanins)
                        + ") ^ full")
            elif gtype == GateType.XNOR:
                expr = ("(" + " ^ ".join(f"v{f}" for f in fanins)
                        + ") ^ full")
            else:  # pragma: no cover - enum is exhaustive
                raise NetlistError(f"cannot compile {gtype}")
            lines.append(f"    v{gid} = {expr}")
            if gid in site_index:
                k = site_index[gid]
                lines.append(f"    v{gid} = (v{gid} & nmask[{k}])"
                             f" | fval[{k}]")
        outs = ", ".join(f"v{self.netlist.outputs[name]}"
                         for name in self.output_names)
        nstate = ", ".join(f"v{self.netlist.gates[gid].fanins[0]}"
                           for gid in self.dff_gids)
        lines.append(f"    return [{outs}], [{nstate}]")
        namespace: dict = {}
        exec("\n".join(lines), namespace)  # noqa: S102 - trusted codegen
        return namespace["_cycle"]

    # ------------------------------------------------------------------
    def pack_inputs(self, vectors: dict[str, int]) -> list[int]:
        """Order a name->lanes mapping into the pi list (missing = 0)."""
        return [vectors.get(name, 0) & FULL for name in self.input_names]

    def run(self, sequence: list[dict[str, int]],
            state: list[int] | None = None
            ) -> tuple[list[dict[str, int]], list[int]]:
        """Fault-free simulation of an input sequence.

        Args:
            sequence: one dict of input lanes per cycle.
            state: initial state (default all zeros).

        Returns:
            (per-cycle output dicts, final state).
        """
        fn = self.cycle_fn(())
        state = list(state) if state is not None else self.zero_state()
        nothing: list[int] = []
        outputs: list[dict[str, int]] = []
        for vectors in sequence:
            outs, state = fn(self.pack_inputs(vectors), state, nothing,
                             nothing, FULL)
            outputs.append(dict(zip(self.output_names, outs)))
        return outputs, state

"""Full-scan combinational ATPG support.

With every register in the chain, a stuck-at test is the classic
load–capture–unload pattern: PODEM runs on a *combinational* model in
which flip-flop outputs are pseudo primary inputs and flip-flop D
inputs pseudo primary outputs; each generated test costs
``chain_length`` shift cycles to load, one capture cycle, and the
response shifts out while the next test shifts in.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gates.netlist import GateNetlist, GateType, check_topological_order
from .expand import SCAN_ENABLE, SCAN_IN
from ..atpg.unroll import OP_PI, UnrolledCircuit, _CODE


def unroll_full_scan(netlist: GateNetlist) -> UnrolledCircuit:
    """One combinational frame with DFFs exposed as pseudo-PIs/POs.

    The scan-control inputs are forced to functional mode (scan_enable
    = 0) by modelling them as constants, so tests target the functional
    logic rather than the chain muxes.
    """
    netlist.check_complete()
    check_topological_order(netlist)
    model = UnrolledCircuit(frames=1)

    def new_node(op: int, fanins: tuple[int, ...]) -> int:
        uid = len(model.ops)
        model.ops.append(op)
        model.fanins.append(fanins)
        model.fanouts.append([])
        model.depth.append(
            1 + max(model.depth[f] for f in fanins) if fanins else 0)
        for fin in fanins:
            model.fanouts[fin].append(uid)
        return uid

    input_name_of = {gid: name for name, gid in netlist.inputs.items()}
    uid_of: dict[int, int] = {}
    dff_gids = []
    for gate in netlist.gates:
        if gate.gtype == GateType.DFF:
            uid = new_node(OP_PI, ())
            model.pi_names[uid] = (0, f"ppi:{gate.name or gate.gid}")
            dff_gids.append(gate.gid)
        elif gate.gtype == GateType.INPUT:
            name = input_name_of[gate.gid]
            if name in (SCAN_ENABLE, SCAN_IN):
                # Functional mode during capture.
                from ..atpg.unroll import OP_CONST0
                uid = new_node(OP_CONST0, ())
            else:
                uid = new_node(OP_PI, ())
                model.pi_names[uid] = (0, name)
        else:
            mapped = tuple(uid_of[f] for f in gate.fanins)
            uid = new_node(_CODE[gate.gtype], mapped)
        uid_of[gate.gid] = uid
        model.site_uids.setdefault(gate.gid, []).append(uid)
    for name, gid in netlist.outputs.items():
        model.po_names[uid_of[gid]] = (0, name)
    # Pseudo-POs: every D input is observable through the chain.
    for dff_gid in dff_gids:
        driver = netlist.gates[dff_gid].fanins[0]
        uid = uid_of[driver]
        if uid not in model.po_names:
            model.po_names[uid] = (0, f"ppo:{dff_gid}")
    return model


@dataclass(frozen=True)
class ScanTestCost:
    """Cycle accounting of a scan test set."""

    tests: int
    chain_length: int

    @property
    def cycles(self) -> int:
        """Load/unload overlap: (n+1) shifts-loads of L cycles + n captures."""
        if self.tests == 0:
            return 0
        return (self.tests + 1) * self.chain_length + self.tests

"""Sequential depth: the quantity rule SR1 minimises.

Lee et al.'s rule SR1 — *reduce the sequential depth from a controllable
register to an observable register* — drives both the paper's
rescheduling order decisions and its register-merger choices.  The depth
of a register is measured in register stages: how many clocked elements
a value must traverse from a primary input to reach the register
(``depth_in``), and from the register to a primary output or condition
line (``depth_out``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..etpn.datapath import DataPath, NodeKind
from .metrics import UNREACHABLE_DEPTH


@dataclass(frozen=True)
class RegisterDepth:
    """Input and output sequential depth of one register."""

    register: str
    depth_in: float
    depth_out: float

    @property
    def total(self) -> float:
        """The controllable-to-observable depth through this register."""
        return self.depth_in + self.depth_out


def _dijkstra(datapath: DataPath, sources: list[str],
              forward: bool) -> dict[str, float]:
    """Shortest register-stage distance from ``sources`` to every node.

    Forward, entering a register costs 1 (one clock to load it);
    backward, leaving a register towards its driver costs 1 (the value
    had to be produced one time frame earlier).  Every other hop is
    combinational and free.
    """
    dist = {node_id: UNREACHABLE_DEPTH for node_id in datapath.nodes}
    heap: list[tuple[float, str]] = []
    for src in sources:
        dist[src] = 0.0
        heapq.heappush(heap, (0.0, src))
    while heap:
        d, node_id = heapq.heappop(heap)
        if d > dist[node_id]:
            continue
        arcs = (datapath.outgoing(node_id) if forward
                else datapath.incoming(node_id))
        for arc in arcs:
            neighbour = arc.dst if forward else arc.src
            stage = (datapath.nodes[neighbour] if forward
                     else datapath.nodes[node_id])
            cost = 1.0 if stage.kind == NodeKind.REGISTER else 0.0
            candidate = d + cost
            if candidate < dist[neighbour]:
                dist[neighbour] = candidate
                heapq.heappush(heap, (candidate, neighbour))
    return dist


def register_depths(datapath: DataPath) -> dict[str, RegisterDepth]:
    """Sequential depth of every register in the data path."""
    inputs = [n.node_id for n in datapath.nodes.values()
              if n.kind in (NodeKind.PORT_IN, NodeKind.CONST)]
    outputs = [n.node_id for n in datapath.nodes.values()
               if n.kind in (NodeKind.PORT_OUT, NodeKind.COND)]
    from_in = _dijkstra(datapath, inputs, forward=True)
    to_out = _dijkstra(datapath, outputs, forward=False)
    depths = {}
    for register in datapath.registers():
        depths[register.node_id] = RegisterDepth(
            register.node_id,
            depth_in=from_in[register.node_id],
            depth_out=to_out[register.node_id])
    return depths


def sequential_depth_metric(datapath: DataPath) -> float:
    """Aggregate SR1 metric: total controllable→observable depth.

    Lower is better.  Rescheduling alternatives are compared with this
    number (plus the self-loop count, which SR1's motivation also
    penalises).
    """
    depths = register_depths(datapath)
    if not depths:
        return 0.0
    return sum(d.total for d in depths.values())

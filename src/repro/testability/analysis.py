"""Testability analysis: CC/SC/CO/SO propagation over a data path.

Reimplementation of the analysis the paper takes from Gu, Kuchcinski &
Peng (EURO-DAC'94): combinational values start at the primary inputs
(CC=1, SC=0) and propagate forward to the primary outputs; observability
propagates backward from the outputs (CO=1, SO=0).  Register stages add
one unit of sequential cost; functional modules attenuate combinational
values by per-operation transfer factors.  Data-path loops are handled
by fixpoint relaxation (the updates are monotone, so iteration
converges).

Condition lines count as observable outputs because the paper assumes
the controller can be modified to support the test plan (§1).
"""

from __future__ import annotations

from ..dfg.ops import OpKind
from ..etpn.datapath import DataPath, DataPathArc, NodeKind
from .metrics import LineTestability, NodeTestability, UNREACHABLE_DEPTH

#: Combinational transfer factor: how much of a value's controllability
#: survives justification through each operation.
CTF = {
    OpKind.ADD: 0.95, OpKind.SUB: 0.95,
    OpKind.MUL: 0.55, OpKind.DIV: 0.45,
    OpKind.LT: 0.50, OpKind.GT: 0.50, OpKind.LE: 0.50, OpKind.GE: 0.50,
    OpKind.EQ: 0.50, OpKind.NE: 0.50,
    OpKind.AND: 0.80, OpKind.OR: 0.80, OpKind.XOR: 0.90, OpKind.NOT: 1.00,
    OpKind.SHL: 0.85, OpKind.SHR: 0.85,
    OpKind.MOVE: 1.00,
}

#: Observational transfer factor: how much observability survives
#: propagation of a fault effect through each operation.
OTF = {
    OpKind.ADD: 0.95, OpKind.SUB: 0.95,
    OpKind.MUL: 0.45, OpKind.DIV: 0.35,
    OpKind.LT: 0.30, OpKind.GT: 0.30, OpKind.LE: 0.30, OpKind.GE: 0.30,
    OpKind.EQ: 0.30, OpKind.NE: 0.30,
    OpKind.AND: 0.70, OpKind.OR: 0.70, OpKind.XOR: 0.90, OpKind.NOT: 1.00,
    OpKind.SHL: 0.80, OpKind.SHR: 0.80,
    OpKind.MOVE: 1.00,
}

#: A constant line justifies one fixed value: half-controllable.
CONST_CC = 0.5

_EPS = 1e-9
_MAX_ITERATIONS = 200

#: A (combinational, sequential) controllability or observability pair.
#: Values are ranked by the score ``c / (1 + s)``; one is better than
#: another when its score is higher by more than ``_EPS``.
Value = tuple[float, float]
_ZERO: Value = (0.0, UNREACHABLE_DEPTH)
_OBSERVED: Value = (1.0, 0.0)


class Fixpoint:
    """The relaxed CC/SC and CO/SO values of one data path.

    It holds no reference to the data path, so the data path can keep
    it (see :func:`analyze`) without a reference cycle.

    Each module's transfer factors are read once.  Each module input's
    controllability, and so each side input's, is read once after the
    forward pass, the last to change it.  Values are plain float pairs
    updated in the original order, so every value and every iteration
    count equals that of one ``(c, s)`` object per update.
    """

    __slots__ = ("out_ctrl", "node_obs", "arc_obs", "nodes",
                 "forward_converged", "backward_converged")

    def __init__(self, datapath: DataPath) -> None:
        #: Did the forward (controllability) / backward (observability)
        #: relaxations reach a fixed point within ``_MAX_ITERATIONS``?
        #: When False the values are the last iterate, not the fixed
        #: point; lint rule TST004 surfaces this.
        self.forward_converged = False
        self.backward_converged = False
        #: Node id -> the controllability of its output.
        self.out_ctrl: dict[str, Value] = {}
        #: Node id -> its observability (best out-arc).
        self.node_obs: dict[str, Value] = {}
        #: (src, dst, port) -> the observability of that arc.
        self.arc_obs: dict[tuple[str, str, int], Value] = {}
        #: Node id -> its node-level measures (paper §3).
        self.nodes: dict[str, NodeTestability] = {}
        ports_ctrl = self._forward(datapath)
        self._backward(datapath, ports_ctrl)
        for node_id in datapath.nodes:
            self.nodes[node_id] = self._node(datapath, node_id)

    # ------------------------------------------------------------------
    # Forward: controllability
    # ------------------------------------------------------------------
    def _forward(self, dp: DataPath) -> dict[str, list[Value]]:
        """Relax controllability; each module's final input values."""
        out = self.out_ctrl
        score: dict[str, float] = {}
        for node_id, node in dp.nodes.items():
            if node.kind == NodeKind.PORT_IN:
                value = (1.0, 0.0)
            elif node.kind == NodeKind.CONST:
                value = (CONST_CC, 0.0)
            else:
                value = _ZERO
            out[node_id] = value
            score[node_id] = value[0] / (1.0 + value[1])
        # Registers and modules with inputs in id order: (node, transfer
        # factor or None for a register, each input port's sources).
        work: list[tuple[str, float | None, list[tuple[str, ...]]]] = []
        for node_id in sorted(dp.nodes):
            kind = dp.nodes[node_id].kind
            ports = dp.port_sources(node_id)
            if kind == NodeKind.REGISTER:
                work.append((node_id, None, [ports.get(0, ())]))
            elif kind == NodeKind.MODULE and ports:
                work.append((node_id, _module_factor(dp, node_id, CTF),
                             list(ports.values())))

        def port_ctrl(sources: tuple[str, ...]) -> Value:
            """Controllability of one input port: best source wins (a
            mux lets the test choose the easiest path)."""
            best, top = _ZERO, 0.0
            for src in sources:
                if score[src] > top + _EPS:
                    best, top = out[src], score[src]
            return best

        for _ in range(_MAX_ITERATIONS):
            changed = False
            for node_id, factor, ports_sources in work:
                if factor is None:
                    c, s = port_ctrl(ports_sources[0])
                    candidate = (c, min(s + 1.0, UNREACHABLE_DEPTH))
                else:
                    values = [port_ctrl(sources) for sources in ports_sources]
                    candidate = (factor * min(v[0] for v in values),
                                 max(v[1] for v in values))
                candidate_score = candidate[0] / (1.0 + candidate[1])
                if candidate_score > score[node_id] + _EPS:
                    out[node_id] = candidate
                    score[node_id] = candidate_score
                    changed = True
            if not changed:
                self.forward_converged = True
                break
        return {node_id: [port_ctrl(sources) for sources in ports_sources]
                for node_id, factor, ports_sources in work
                if factor is not None}

    # ------------------------------------------------------------------
    # Backward: observability
    # ------------------------------------------------------------------
    def _backward(self, dp: DataPath,
                  ports_ctrl: dict[str, list[Value]]) -> None:
        obs = self.node_obs
        obs.update(dict.fromkeys(dp.nodes, _ZERO))
        score = dict.fromkeys(dp.nodes, 0.0)
        kinds = {node_id: node.kind for node_id, node in dp.nodes.items()}
        factors = {node_id: _module_factor(dp, node_id, OTF)
                   for node_id in ports_ctrl}
        # Per module input port, the worst CC among the other inputs.
        side: dict[tuple[str, int], float] = {}
        for node_id, ctrl in ports_ctrl.items():
            ports = list(dp.port_sources(node_id))
            for port in ports:
                side_cc = 1.0
                for other, value in zip(ports, ctrl):
                    if other != port:
                        side_cc = min(side_cc, value[0])
                side[node_id, port] = side_cc

        def arc_obs(dst: str, port: int) -> Value:
            kind = kinds[dst]
            if kind in (NodeKind.PORT_OUT, NodeKind.COND):
                return _OBSERVED
            if kind == NodeKind.REGISTER:
                c, s = obs[dst]
                return (c, min(s + 1.0, UNREACHABLE_DEPTH))
            if kind == NodeKind.MODULE:
                c, s = obs[dst]
                return (factors[dst] * c * side[dst, port], s)
            return _ZERO

        # Nodes with out-arcs in id order, with their (dst, port) pairs.
        work = [(node_id, [(a.dst, a.port) for a in dp.outgoing(node_id)])
                for node_id in sorted(dp.nodes) if dp.outgoing(node_id)]
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for node_id, arcs in work:
                best, top = _ZERO, 0.0
                for dst, port in arcs:
                    value = arc_obs(dst, port)
                    value_score = value[0] / (1.0 + value[1])
                    if value_score > top + _EPS:
                        best, top = value, value_score
                if top > score[node_id] + _EPS:
                    obs[node_id] = best
                    score[node_id] = top
                    changed = True
            if not changed:
                self.backward_converged = True
                break
        for arc in dp.arcs:
            self.arc_obs[(arc.src, arc.dst, arc.port)] = \
                arc_obs(arc.dst, arc.port)

    # ------------------------------------------------------------------
    def _node(self, dp: DataPath, node_id: str) -> NodeTestability:
        """Controllability = best input line; observability = best
        output line.  Ports use their intrinsic values."""
        kind = dp.nodes[node_id].kind
        if kind in (NodeKind.PORT_IN, NodeKind.CONST):
            ctrl = self.out_ctrl[node_id]
        else:
            ctrl, top = _ZERO, 0.0
            for arc in dp.incoming(node_id):
                value = self.out_ctrl.get(arc.src, _ZERO)
                value_score = value[0] / (1.0 + value[1])
                if value_score > top + _EPS:
                    ctrl, top = value, value_score
        if kind in (NodeKind.PORT_OUT, NodeKind.COND):
            obs = _OBSERVED
        else:
            obs = self.node_obs[node_id]
        return NodeTestability(node_id, cc=ctrl[0], sc=ctrl[1],
                               co=obs[0], so=obs[1])


def _module_factor(dp: DataPath, node_id: str,
                   factors: dict[OpKind, float]) -> float:
    """Best transfer factor over the ops a module can execute."""
    operation = dp.dfg.operation
    return max(factors[operation(o).kind] for o in dp.nodes[node_id].ops)


class TestabilityAnalysis:
    """CC/SC/CO/SO values for every arc and node of a data path."""

    def __init__(self, datapath: DataPath,
                 fixpoint: Fixpoint | None = None) -> None:
        self.datapath = datapath
        #: The values; relaxed here unless given.
        self.fixpoint = Fixpoint(datapath) if fixpoint is None else fixpoint

    @property
    def forward_converged(self) -> bool:
        """Did the controllability relaxation reach its fixed point?"""
        return self.fixpoint.forward_converged

    @property
    def backward_converged(self) -> bool:
        """Did the observability relaxation reach its fixed point?"""
        return self.fixpoint.backward_converged

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    def line(self, arc: DataPathArc) -> LineTestability:
        """The four measures of one arc."""
        cc, sc = self.fixpoint.out_ctrl.get(arc.src, _ZERO)
        co, so = self.fixpoint.arc_obs.get((arc.src, arc.dst, arc.port),
                                           _ZERO)
        return LineTestability(cc=cc, sc=sc, co=co, so=so)

    def node(self, node_id: str) -> NodeTestability:
        """Node-level testability (paper §3).

        Controllability = best input line; observability = best output
        line.  Ports use their intrinsic values.
        """
        return self.fixpoint.nodes[node_id]

    def all_nodes(self) -> dict[str, NodeTestability]:
        """Node testability for every data-path node."""
        return dict(self.fixpoint.nodes)

    def design_quality(self) -> float:
        """Mean worst-dimension score over modules and registers.

        A single scalar used by tests and ablation benches to compare
        the overall testability of two designs.
        """
        interesting = [n.node_id for n in self.datapath.modules()
                       + self.datapath.registers()]
        if not interesting:
            return 0.0
        return sum(self.node(n).quality for n in interesting) / len(interesting)


def analyze(datapath: DataPath) -> TestabilityAnalysis:
    """Run (or recall) the testability analysis of a data path.

    The :class:`Fixpoint` is kept on the data path, whose nodes and arcs
    never change: Algorithm 1's candidate ranking re-analysing the
    design its final iteration just analysed, and ``run_cell`` and
    ``explore`` pricing that same design, recall it instead of
    re-propagating.  The fixpoint holds no reference back to the data
    path, so both are freed by reference counting when the data path
    is dropped, with no reference cycle for the cycle collector.
    """
    fixpoint = datapath.testability
    if fixpoint is None:
        fixpoint = datapath.testability = Fixpoint(datapath)
    return TestabilityAnalysis(datapath, fixpoint)

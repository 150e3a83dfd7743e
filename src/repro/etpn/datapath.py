"""The ETPN data path: a directed graph of ports, registers and modules.

The data path is derived from a DFG plus a :class:`~repro.alloc.binding.Binding`:

* one PORT_IN node per primary-input variable, one PORT_OUT per output;
* one REGISTER node per register in the binding;
* one MODULE node per functional module in the binding;
* one CONST node per distinct literal;
* a COND node per condition variable (its value feeds the controller,
  which the paper assumes can be modified to support the test plan, so
  conditions count as observable outputs).

Arcs record every distinct connection (source node, sink node, sink
input port).  A sink input port fed by more than one distinct source
requires a multiplexer; :meth:`DataPath.mux_count` reproduces the
``#Mux`` column of the paper's tables.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING

from ..alloc.binding import Binding
from ..dfg import DFG, unit_class, UnitClass
from ..dfg.graph import Const
from ..errors import NetlistError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cost.floorplan import Floorplan
    from ..testability.analysis import Fixpoint


class NodeKind(enum.Enum):
    """Kind of a data-path node."""

    PORT_IN = "in"
    PORT_OUT = "out"
    REGISTER = "reg"
    MODULE = "mod"
    CONST = "const"
    COND = "cond"


@dataclass
class DataPathNode:
    """One vertex of the data path.

    Attributes:
        node_id: unique id (register/module ids come from the binding).
        kind: the node kind.
        ops: for MODULE nodes, the bound operation ids.
        variables: for REGISTER nodes, the stored variables; for ports
            and COND nodes, the single associated variable.
        value: for CONST nodes, the literal value.
    """

    node_id: str
    kind: NodeKind
    ops: tuple[str, ...] = ()
    variables: tuple[str, ...] = ()
    value: int | None = None

    def __str__(self) -> str:  # pragma: no cover - debug helper
        detail = ",".join(self.ops or self.variables)
        return f"{self.node_id}({self.kind.value}:{detail})"


@dataclass(frozen=True)
class DataPathArc:
    """A connection from ``src`` to input port ``port`` of ``dst``.

    ``port`` is ``0``/``1`` for module operand positions and ``0`` for
    register and output-port data inputs.  ``is_condition`` marks 1-bit
    condition wires.
    """

    src: str
    dst: str
    port: int
    is_condition: bool = False


class DataPath:
    """The structural data path of a bound design.

    Immutable once built: nothing outside this module changes its
    nodes or arcs, so derived facts may be kept on it.
    """

    def __init__(self, dfg: DFG, binding: Binding) -> None:
        self.dfg = dfg
        self.binding = binding
        self.nodes: dict[str, DataPathNode] = {}
        self.arcs: list[DataPathArc] = []
        #: This data path's floorplan, placed on first use by
        #: :func:`repro.cost.estimate.placement` and kept while it lives.
        self.placement: Floorplan | None = None
        #: ``(bits, H)`` of the last
        #: :meth:`repro.cost.estimate.CostModel.hardware_total` pricing.
        self.area: tuple[int, float] | None = None
        #: The testability fixpoint, computed on first use by
        #: :func:`repro.testability.analyze` and kept while it lives.
        self.testability: Fixpoint | None = None
        self._build()
        self._outgoing: dict[str, list[DataPathArc]] = {n: [] for n in self.nodes}
        self._incoming: dict[str, list[DataPathArc]] = {n: [] for n in self.nodes}
        ports: dict[str, dict[int, list[str]]] = {n: {} for n in self.nodes}
        for arc in self.arcs:
            self._outgoing[arc.src].append(arc)
            self._incoming[arc.dst].append(arc)
            ports[arc.dst].setdefault(arc.port, []).append(arc.src)
        # The arcs are distinct and sorted by source, so each port's
        # sources arrive distinct and sorted.
        self._port_sources = {
            node: {port: tuple(sources)
                   for port, sources in sorted(by_port.items())}
            for node, by_port in ports.items()}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _add_node(self, node: DataPathNode) -> None:
        if node.node_id in self.nodes:
            raise NetlistError(f"duplicate data-path node {node.node_id!r}")
        self.nodes[node.node_id] = node

    def _build(self) -> None:
        dfg, binding = self.dfg, self.binding
        for module, ops in binding.modules().items():
            self._add_node(DataPathNode(module, NodeKind.MODULE,
                                        ops=tuple(ops)))
        for register, variables in binding.registers().items():
            self._add_node(DataPathNode(register, NodeKind.REGISTER,
                                        variables=tuple(variables)))
        for var in dfg.inputs():
            self._add_node(DataPathNode(f"PI_{var.name}", NodeKind.PORT_IN,
                                        variables=(var.name,)))
        for var in dfg.outputs():
            self._add_node(DataPathNode(f"PO_{var.name}", NodeKind.PORT_OUT,
                                        variables=(var.name,)))
        for name in dfg.condition_variables():
            self._add_node(DataPathNode(f"COND_{name}", NodeKind.COND,
                                        variables=(name,)))

        # (src, dst, port, is_condition) of every distinct connection.
        arcs: set[tuple[str, str, int, bool]] = set()
        # Input ports load their registers.
        for var in dfg.inputs():
            register = self.binding.register_of.get(var.name)
            if register is not None:
                arcs.add((f"PI_{var.name}", register, 0, False))
        # Operand and result connections per operation, merged per module.
        for op in dfg:
            module = binding.module_of[op.op_id]
            for port, operand in enumerate(op.srcs):
                if isinstance(operand, Const):
                    const_id = f"C_{operand.value}"
                    if const_id not in self.nodes:
                        self._add_node(DataPathNode(const_id, NodeKind.CONST,
                                                    value=operand.value))
                    arcs.add((const_id, module, port, False))
                else:
                    source = binding.register_of.get(operand)
                    if source is None:
                        raise NetlistError(
                            f"operand {operand!r} of {op.op_id} has no "
                            f"register")
                    arcs.add((source, module, port, False))
            if op.dst is not None:
                dst_var = dfg.variable(op.dst)
                if dst_var.is_condition:
                    arcs.add((module, f"COND_{op.dst}", 0, True))
                else:
                    register = binding.register_of[op.dst]
                    arcs.add((module, register, 0, False))
        # Registers drive output ports.
        for var in dfg.outputs():
            register = self.binding.register_of.get(var.name)
            if register is not None:
                arcs.add((register, f"PO_{var.name}", 0, False))
        # Sorted by (src, dst, port): only COND nodes take condition
        # arcs, so no two arcs differ in ``is_condition`` alone.
        self.arcs = [DataPathArc(*arc) for arc in sorted(arcs)]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def incoming(self, node_id: str) -> list[DataPathArc]:
        """Arcs entering ``node_id``."""
        return list(self._incoming[node_id])

    def outgoing(self, node_id: str) -> list[DataPathArc]:
        """Arcs leaving ``node_id``."""
        return list(self._outgoing[node_id])

    def port_sources(self, node_id: str) -> dict[int, tuple[str, ...]]:
        """Input port -> its distinct sources, both ascending (read-only)."""
        return self._port_sources[node_id]

    def sources_of_port(self, node_id: str, port: int) -> list[str]:
        """Distinct sources feeding one input port of a node."""
        return list(self._port_sources[node_id].get(port, ()))

    def input_ports(self, node_id: str) -> list[int]:
        """Distinct input-port indices of a node."""
        return list(self._port_sources[node_id])

    def fanin(self, node_id: str) -> frozenset[str]:
        """The distinct nodes with an arc into ``node_id``."""
        return self._neighbours[0][node_id]

    def fanout(self, node_id: str) -> frozenset[str]:
        """The distinct nodes with an arc from ``node_id``."""
        return self._neighbours[1][node_id]

    @cached_property
    def _neighbours(self) -> tuple[dict[str, frozenset[str]],
                                   dict[str, frozenset[str]]]:
        return ({n: frozenset(a.src for a in arcs)
                 for n, arcs in self._incoming.items()},
                {n: frozenset(a.dst for a in arcs)
                 for n, arcs in self._outgoing.items()})

    def mux_count(self) -> int:
        """Number of multiplexers implied by the connections.

        One mux per (node, input port) fed by two or more distinct
        sources — the ``#Mux`` column of the paper's tables.
        """
        return sum(len(sources) > 1 for ports in self._port_sources.values()
                   for sources in ports.values())

    def modules(self) -> list[DataPathNode]:
        """All MODULE nodes, sorted by id."""
        return self._of_kind(NodeKind.MODULE)

    def registers(self) -> list[DataPathNode]:
        """All REGISTER nodes, sorted by id."""
        return self._of_kind(NodeKind.REGISTER)

    def _of_kind(self, kind: NodeKind) -> list[DataPathNode]:
        return sorted((n for n in self.nodes.values() if n.kind == kind),
                      key=lambda n: n.node_id)

    def module_class(self, module_id: str) -> UnitClass:
        """Unit class of a module node."""
        node = self.nodes[module_id]
        classes = {unit_class(self.dfg.operation(o).kind) for o in node.ops}
        if len(classes) != 1:
            raise NetlistError(f"module {module_id!r} mixes classes")
        return classes.pop()

    def self_loops(self) -> list[tuple[str, str]]:
        """(module, register) pairs forming module→register→module loops.

        These are the structures high-level test synthesis tries to
        avoid (Mujumdar et al.): a unit whose output register feeds one
        of its own inputs is hard to test without breaking the loop.
        """
        loops = []
        for module in self.modules():
            shared = self.fanout(module.node_id) & self.fanin(module.node_id)
            for register in sorted(shared):
                if self.nodes[register].kind == NodeKind.REGISTER:
                    loops.append((module.node_id, register))
        return loops

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"DataPath({self.dfg.name!r}, {len(self.nodes)} nodes, "
                f"{len(self.arcs)} arcs, {self.mux_count()} muxes)")

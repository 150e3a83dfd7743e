"""The data-flow graph (DFG) produced by the behavioural front end.

A :class:`DFG` is the input to every synthesis flow in this library.  It
models one straight-line block of behaviour (for looping behaviours such
as Diffeq, the loop *body*; the loop structure itself lives in the ETPN
control part).  Nodes are operation instances; variables connect them.

Variables follow the 1998 papers' convention: a *variable* (a source-level
name) is the unit of register allocation.  A variable may be defined by
more than one operation (e.g. ``u1 = u - e; u1 = u1 - f`` in Diffeq); the
builder resolves each use to its *reaching definition* in program order,
which yields flow, anti and output dependence edges.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Union

from ..errors import DFGError
from .ops import OpKind, arity, is_comparison


@dataclass(frozen=True)
class Const:
    """A literal operand, e.g. the ``3`` in ``3 * x``."""

    value: int

    def __str__(self) -> str:  # pragma: no cover - trivial
        return str(self.value)


#: An operation operand is either a variable name or a literal constant.
Operand = Union[str, Const]


@dataclass
class Variable:
    """A source-level variable; the unit of register allocation.

    Attributes:
        name: the source name, unique within the DFG.
        is_input: True when the variable carries a primary-input value
            (it has a use with no reaching definition).
        is_output: True when the variable's final value is a primary output.
        is_condition: True when the variable is a 1-bit condition consumed
            by the control part rather than stored in a data register.
    """

    name: str
    is_input: bool = False
    is_output: bool = False
    is_condition: bool = False

    def needs_register(self) -> bool:
        """Conditions feed the controller directly and need no register."""
        return not self.is_condition


@dataclass
class Operation:
    """One operation instance (a data-path node before allocation).

    Attributes:
        op_id: unique identifier, conventionally the paper's node names
            such as ``"N21"``.
        kind: the operation performed.
        srcs: operands in positional order.
        dst: name of the variable defined, or None for a pure sink.
        reaching: for each source operand, the op_id of the reaching
            definition, or None when the operand is a constant or carries
            a primary-input value.  Filled in by the builder.
        order: position in program order (used to resolve reaching defs).
    """

    op_id: str
    kind: OpKind
    srcs: tuple[Operand, ...]
    dst: Optional[str]
    reaching: tuple[Optional[str], ...] = ()
    order: int = 0

    def src_variables(self) -> list[str]:
        """Names of the variable operands, in positional order."""
        return [s for s in self.srcs if isinstance(s, str)]

    def __str__(self) -> str:  # pragma: no cover - debug helper
        rhs = f" {self.kind} ".join(str(s) for s in self.srcs)
        return f"{self.op_id}: {self.dst} = {rhs}"


@dataclass(frozen=True)
class DependenceEdge:
    """A scheduling-precedence edge between two operations.

    ``kind`` is ``"flow"`` (value produced by ``src`` is read by ``dst``,
    latency = delay of ``src``), ``"anti"`` (``dst`` redefines a variable
    that ``src`` reads; zero latency) or ``"output"`` (``dst`` redefines a
    variable that ``src`` defines; latency = delay of ``src``).
    """

    src: str
    dst: str
    kind: str
    variable: str


class DFG:
    """An immutable data-flow graph.

    Construct one through :class:`repro.dfg.builder.DFGBuilder` (or the
    HDL front end); direct construction is for internal use.
    """

    def __init__(
        self,
        name: str,
        variables: dict[str, Variable],
        operations: dict[str, Operation],
        op_order: list[str],
        loop_condition: Optional[str] = None,
    ) -> None:
        self.name = name
        self._variables = dict(variables)
        self._operations = dict(operations)
        self._op_order = list(op_order)
        #: Name of the condition variable guarding the loop back-edge, or
        #: None for straight-line behaviour.
        self.loop_condition = loop_condition
        self._edges: list[DependenceEdge] = self._compute_edges()
        self._succ: dict[str, list[DependenceEdge]] = {o: [] for o in operations}
        self._pred: dict[str, list[DependenceEdge]] = {o: [] for o in operations}
        for edge in self._edges:
            self._succ[edge.src].append(edge)
            self._pred[edge.dst].append(edge)
        # Defining and reading ops per variable, in program order.
        self._defs: dict[str, list[str]] = {}
        self._uses: dict[str, list[str]] = {}
        for op_id in self._op_order:
            op = self._operations[op_id]
            for var in set(op.src_variables()):
                self._uses.setdefault(var, []).append(op_id)
            if op.dst is not None:
                self._defs.setdefault(op.dst, []).append(op_id)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def variables(self) -> dict[str, Variable]:
        """Mapping of variable name to :class:`Variable` (do not mutate)."""
        return self._variables

    @property
    def operations(self) -> dict[str, Operation]:
        """Mapping of op_id to :class:`Operation` (do not mutate)."""
        return self._operations

    @property
    def op_order(self) -> list[str]:
        """Operation ids in program order."""
        return list(self._op_order)

    def operation(self, op_id: str) -> Operation:
        """Return the operation with ``op_id``; raise DFGError if absent."""
        try:
            return self._operations[op_id]
        except KeyError:
            raise DFGError(f"{self.name}: no operation {op_id!r}") from None

    def variable(self, name: str) -> Variable:
        """Return the variable ``name``; raise DFGError if absent."""
        try:
            return self._variables[name]
        except KeyError:
            raise DFGError(f"{self.name}: no variable {name!r}") from None

    def inputs(self) -> list[Variable]:
        """Primary-input variables in name order."""
        return sorted((v for v in self._variables.values() if v.is_input),
                      key=lambda v: v.name)

    def outputs(self) -> list[Variable]:
        """Primary-output variables in name order."""
        return sorted((v for v in self._variables.values() if v.is_output),
                      key=lambda v: v.name)

    def edges(self) -> list[DependenceEdge]:
        """All dependence edges."""
        return list(self._edges)

    def successors(self, op_id: str) -> list[DependenceEdge]:
        """Edges leaving ``op_id``."""
        return list(self._succ[op_id])

    def predecessors(self, op_id: str) -> list[DependenceEdge]:
        """Edges entering ``op_id``."""
        return list(self._pred[op_id])

    def defs_of(self, var: str) -> list[str]:
        """Op ids defining ``var``, in program order."""
        return list(self._defs.get(var, ()))

    def uses_of(self, var: str) -> list[str]:
        """Op ids reading ``var`` (once each), in program order."""
        return list(self._uses.get(var, ()))

    def __len__(self) -> int:
        return len(self._operations)

    def __iter__(self) -> Iterator[Operation]:
        for op_id in self._op_order:
            yield self._operations[op_id]

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (f"DFG({self.name!r}, {len(self._operations)} ops, "
                f"{len(self._variables)} vars)")

    # ------------------------------------------------------------------
    # Dependence computation
    # ------------------------------------------------------------------
    def _compute_edges(self) -> list[DependenceEdge]:
        """Derive flow/anti/output dependence edges from reaching defs."""
        edges: set[DependenceEdge] = set()
        last_def: dict[str, str] = {}
        last_uses: dict[str, list[str]] = {}
        for op_id in self._op_order:
            op = self._operations[op_id]
            for src in op.src_variables():
                if src in last_def:
                    edges.add(DependenceEdge(last_def[src], op_id, "flow", src))
                last_uses.setdefault(src, []).append(op_id)
            if op.dst is not None:
                if op.dst in last_def:
                    edges.add(DependenceEdge(last_def[op.dst], op_id,
                                             "output", op.dst))
                for user in last_uses.get(op.dst, []):
                    if user != op_id:
                        edges.add(DependenceEdge(user, op_id, "anti", op.dst))
                last_def[op.dst] = op_id
                last_uses[op.dst] = []
        return sorted(edges, key=lambda e: (e.src, e.dst, e.kind, e.variable))

    def condition_variables(self) -> list[str]:
        """Names of condition variables (1-bit controller inputs)."""
        return sorted(n for n, v in self._variables.items() if v.is_condition)


def validate_operation(op: Operation) -> None:
    """Check one operation's internal consistency.

    Raises:
        DFGError: wrong operand count, or a comparison writing to a
            non-condition destination is *not* checked here (the DFG-level
            validator does that with variable information).
    """
    expected = arity(op.kind)
    if len(op.srcs) != expected:
        raise DFGError(
            f"operation {op.op_id}: {op.kind} expects {expected} operands, "
            f"got {len(op.srcs)}")
    if op.dst is None and not is_comparison(op.kind):
        raise DFGError(f"operation {op.op_id}: only comparisons may omit dst")

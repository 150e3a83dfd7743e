"""Symbolic value-flow certification of a scheduled, bound data path.

The paper claims every merger is semantics-preserving.  This module
*proves* it for one design point: it executes the behavioural DFG
symbolically in program order (the reference), then executes the
implementation — the schedule plus the register/module binding —
control step by control step with registers as the only state, and
compares the two with hash-consed value numbering:

* reads happen during a step from the register contents at its start;
* results and primary-input loads are clocked into registers at the
  step's end (the unit-delay model of :func:`repro.dfg.analysis.edge_latency`);
* a primary output is sampled just after its final definition clocks
  in, the moment its lifetime guarantees the register still holds it.

Every divergence is reported with a stable ``EQV0xx`` code:

``EQV001``  an output (or condition) value is never computed/stored;
``EQV002``  an output reaches its port with the wrong expression;
``EQV003``  an operand read finds a stale or missing value in its
            register (the localised cause of most EQV002s);
``EQV004``  a condition feeds the controller the wrong expression;
``EQV005``  two live values are clocked into one register at the same
            edge (the stored value is nondeterministic).

Commutative operators are canonicalised (``a+b`` ≡ ``b+a``) and MOVE is
transparent, so rebindings that only rename or reorder still certify.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..alloc.binding import Binding
from ..dfg import DFG
from ..dfg.graph import Const
from ..dfg.ops import OpKind
from ..errors import ScheduleError

#: Operators whose operand order does not change the value.
COMMUTATIVE = frozenset({OpKind.ADD, OpKind.MUL, OpKind.AND, OpKind.OR,
                         OpKind.XOR, OpKind.EQ, OpKind.NE})

#: Cap on rendered expression strings inside diagnostics.
MAX_RENDER = 80


class ValueNumbering:
    """Hash-consed symbolic expressions: equal ids iff equal values."""

    def __init__(self) -> None:
        self._ids: dict[tuple, int] = {}
        self._terms: list[tuple] = []

    def _intern(self, term: tuple) -> int:
        number = self._ids.get(term)
        if number is None:
            number = len(self._terms)
            self._ids[term] = number
            self._terms.append(term)
        return number

    def input(self, name: str) -> int:
        """The symbolic value carried by primary input ``name``."""
        return self._intern(("in", name))

    def const(self, value: int) -> int:
        """A literal operand."""
        return self._intern(("const", value))

    def apply(self, kind: OpKind, args: tuple[int, ...]) -> int:
        """The value produced by applying ``kind`` to numbered operands."""
        if kind is OpKind.MOVE:
            return args[0]
        if kind in COMMUTATIVE:
            args = tuple(sorted(args))
        return self._intern(("op", kind.value, args))

    def render(self, number: int) -> str:
        """Readable infix form of a value number, capped at
        :data:`MAX_RENDER` characters."""
        text = self._render(number)
        return (text if len(text) <= MAX_RENDER
                else text[:MAX_RENDER - 1] + "…")

    def _render(self, number: int) -> str:
        term = self._terms[number]
        if term[0] == "in":
            return str(term[1])
        if term[0] == "const":
            return str(term[1])
        _, symbol, args = term
        if len(args) == 1:
            return f"{symbol}{self._render(args[0])}"
        return "(" + f" {symbol} ".join(self._render(a) for a in args) + ")"

    def __len__(self) -> int:
        return len(self._terms)


@dataclass(frozen=True)
class Divergence:
    """One certified difference between behaviour and implementation."""

    code: str
    location: str
    message: str
    hint: str = ""


@dataclass
class EquivalenceCertificate:
    """The result of certifying one design point.

    Attributes:
        name: design name.
        vn: the shared value-numbering table (render ids through it).
        outputs: output variable -> (reference id, implementation id or
            None when the implementation never produces the output).
        conditions: condition variable -> (reference id, implementation
            id or None).
        divergences: every detected difference; empty iff the design
            provably computes the original behaviour.
    """

    name: str
    vn: ValueNumbering
    outputs: dict[str, tuple[int, Optional[int]]] = field(default_factory=dict)
    conditions: dict[str, tuple[int, Optional[int]]] = field(
        default_factory=dict)
    divergences: list[Divergence] = field(default_factory=list)

    @property
    def valid(self) -> bool:
        """True when the implementation provably matches the behaviour."""
        return not self.divergences

    def summary(self) -> str:
        """One line per certified output/condition plus the verdict."""
        lines = []
        for name, (ref, impl) in sorted(self.outputs.items()):
            status = "ok" if impl == ref else "DIVERGES"
            lines.append(f"output {name}: {status} = {self.vn.render(ref)}")
        for name, (ref, impl) in sorted(self.conditions.items()):
            status = "ok" if impl == ref else "DIVERGES"
            lines.append(f"condition {name}: {status} = "
                         f"{self.vn.render(ref)}")
        verdict = ("certificate valid" if self.valid else
                   f"{len(self.divergences)} divergences")
        lines.append(verdict)
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serialisable form (used by ``repro-hlts analyze``)."""
        return {
            "valid": self.valid,
            "outputs": {name: {"expr": self.vn.render(ref),
                               "matches": impl == ref}
                        for name, (ref, impl) in sorted(self.outputs.items())},
            "conditions": {name: {"expr": self.vn.render(ref),
                                  "matches": impl == ref}
                           for name, (ref, impl)
                           in sorted(self.conditions.items())},
            "divergences": [{"code": d.code, "location": d.location,
                             "message": d.message} for d in self.divergences],
        }


# ----------------------------------------------------------------------
def certify(dfg: DFG, steps: dict[str, int],
            binding: Binding) -> EquivalenceCertificate:
    """Symbolically certify one scheduled, bound design point.

    Raises:
        ScheduleError: when ``steps`` does not cover every operation
            (the certifier needs a complete schedule; incomplete ones
            are the schedule rules' findings).
    """
    missing = set(dfg.operations) - set(steps)
    if missing:
        raise ScheduleError(f"{dfg.name}: cannot certify with unscheduled "
                            f"operations {sorted(missing)}")
    vn = ValueNumbering()
    cert = EquivalenceCertificate(dfg.name, vn)
    ref_result, ref_operands = _reference_pass(dfg, vn)
    _implementation_pass(dfg, steps, binding, vn, cert, ref_result,
                         ref_operands)
    return cert


def _reference_pass(dfg: DFG, vn: ValueNumbering
                    ) -> tuple[dict[str, int], dict[tuple[str, int], int]]:
    """Program-order symbolic execution of the behavioural DFG."""
    ref_result: dict[str, int] = {}
    ref_operands: dict[tuple[str, int], int] = {}
    for op_id in dfg.op_order:
        op = dfg.operations[op_id]
        args = []
        for position, operand in enumerate(op.srcs):
            if isinstance(operand, Const):
                number = vn.const(operand.value)
            else:
                reaching = (op.reaching[position]
                            if position < len(op.reaching) else None)
                if reaching is not None and reaching in ref_result:
                    number = ref_result[reaching]
                else:
                    number = vn.input(operand)
            ref_operands[(op_id, position)] = number
            args.append(number)
        ref_result[op_id] = vn.apply(op.kind, tuple(args))
    return ref_result, ref_operands


def _live(dfg: DFG, var: str) -> bool:
    """A value worth preserving: read by someone or a primary output."""
    variable = dfg.variables.get(var)
    if variable is not None and variable.is_output:
        return True
    return bool(dfg.uses_of(var))


def _implementation_pass(dfg: DFG, steps: dict[str, int], binding: Binding,
                         vn: ValueNumbering, cert: EquivalenceCertificate,
                         ref_result: dict[str, int],
                         ref_operands: dict[tuple[str, int], int]) -> None:
    """Step-by-step symbolic execution of the schedule + binding."""
    register_of = binding.register_of
    by_step: dict[int, list[str]] = {}
    for op_id, step in steps.items():
        if op_id in dfg.operations:
            by_step.setdefault(step, []).append(op_id)
    # Primary inputs load their registers at the end of the step before
    # their first use (the lifetime model's birth).
    loads: dict[int, list[str]] = {}
    for var in dfg.inputs():
        if register_of.get(var.name) is None:
            continue
        uses = [steps[o] for o in dfg.uses_of(var.name) if o in steps]
        if uses:
            loads.setdefault(min(uses) - 1, []).append(var.name)
    # Primary outputs are sampled just after their last definition.
    sample_at: dict[int, list[str]] = {}
    impl_out: dict[str, Optional[int]] = {}
    for var in dfg.outputs():
        defs = dfg.defs_of(var.name)
        if defs:
            sample_at.setdefault(max(steps[o] for o in defs),
                                 []).append(var.name)
        else:
            impl_out[var.name] = vn.input(var.name)  # a port-to-port wire

    impl_cond: dict[str, int] = {}
    registers: dict[str, int] = {}
    relevant = (list(by_step) + list(loads) + list(sample_at)) or [0]
    for step in range(min(relevant), max(relevant) + 1):
        # (r, value, writer op/load, write is live)
        writes: list[tuple[str, int, str, bool]] = []
        for op_id in sorted(by_step.get(step, [])):
            op = dfg.operations[op_id]
            args = []
            for position, operand in enumerate(op.srcs):
                expected = ref_operands[(op_id, position)]
                if isinstance(operand, Const):
                    number = vn.const(operand.value)
                else:
                    number = _read_register(op_id, operand, expected,
                                            register_of, registers, vn, cert)
                args.append(number)
            result = vn.apply(op.kind, tuple(args))
            if op.dst is None:
                continue
            dst_var = dfg.variables.get(op.dst)
            if dst_var is not None and dst_var.is_condition:
                impl_cond[op.dst] = result
                continue
            register = register_of.get(op.dst)
            if register is None:
                cert.divergences.append(Divergence(
                    "EQV001", op_id,
                    f"{op_id}: result {op.dst!r} has no register; the "
                    f"value is lost",
                    hint="bind the variable to a register"))
                continue
            writes.append((register, result, op_id, _live(dfg, op.dst)))
        for name in loads.get(step, []):
            writes.append((register_of[name], vn.input(name), f"load({name})",
                           True))
        _apply_writes(writes, registers, cert)
        for name in sample_at.get(step, []):
            register = register_of.get(name)
            impl_out[name] = registers.get(register) if register else None

    _compare(dfg, vn, cert, ref_result, impl_out, impl_cond)


def _read_register(op_id: str, operand: str, expected: int,
                   register_of: dict[str, str], registers: dict[str, int],
                   vn: ValueNumbering, cert: EquivalenceCertificate) -> int:
    """One operand read; reports EQV003 on a stale or missing value."""
    register = register_of.get(operand)
    if register is None:
        # Condition-as-data or unbound variable: upstream rules
        # (DFG004/BND002) own that finding; assume the intended value.
        return expected
    actual = registers.get(register)
    if actual is None:
        cert.divergences.append(Divergence(
            "EQV003", op_id,
            f"{op_id}: reads {operand!r} from {register!r} before any "
            f"value was stored there",
            hint="the operation is scheduled too early"))
        return expected
    if actual != expected:
        cert.divergences.append(Divergence(
            "EQV003", op_id,
            f"{op_id}: reads {operand!r} from {register!r} but finds "
            f"{vn.render(actual)} instead of {vn.render(expected)}",
            hint="the register was overwritten before this use"))
    return actual


def _apply_writes(writes: list[tuple[str, int, str, bool]],
                  registers: dict[str, int],
                  cert: EquivalenceCertificate) -> None:
    """Clock one step's writes in; reports EQV005 on live clobbers.

    Dead-value writes (results nobody reads) are applied first so a
    live value deterministically wins the edge without a finding.
    """
    last_live: dict[str, str] = {}
    for register, number, writer, live in sorted(
            writes, key=lambda w: (w[0], w[3], w[2])):
        if live and register in last_live:
            cert.divergences.append(Divergence(
                "EQV005", register,
                f"register {register!r}: {last_live[register]} and "
                f"{writer} clock values in at the same edge",
                hint="the stored value is nondeterministic"))
        registers[register] = number
        if live:
            last_live[register] = writer


def _compare(dfg: DFG, vn: ValueNumbering, cert: EquivalenceCertificate,
             ref_result: dict[str, int], impl_out: dict[str, Optional[int]],
             impl_cond: dict[str, int]) -> None:
    """Final equivalence comparison of outputs and conditions."""
    for var in dfg.outputs():
        defs = dfg.defs_of(var.name)
        reference = (ref_result[defs[-1]] if defs else vn.input(var.name))
        implementation = impl_out.get(var.name)
        cert.outputs[var.name] = (reference, implementation)
        if implementation is None:
            cert.divergences.append(Divergence(
                "EQV001", var.name,
                f"output {var.name!r} is never stored in a register",
                hint="bind it and schedule its definition"))
        elif implementation != reference:
            cert.divergences.append(Divergence(
                "EQV002", var.name,
                f"output {var.name!r} computes {vn.render(implementation)} "
                f"instead of {vn.render(reference)}",
                hint="a register or module was rebound illegally"))
    for name in dfg.condition_variables():
        defs = dfg.defs_of(name)
        if not defs:
            continue  # DFG007 owns undefined conditions
        reference = ref_result[defs[-1]]
        implementation = impl_cond.get(name)
        cert.conditions[name] = (reference, implementation)
        if implementation is None:
            cert.divergences.append(Divergence(
                "EQV001", name,
                f"condition {name!r} is never computed",
                hint="schedule its comparison"))
        elif implementation != reference:
            cert.divergences.append(Divergence(
                "EQV004", name,
                f"condition {name!r} feeds the controller "
                f"{vn.render(implementation)} instead of "
                f"{vn.render(reference)}",
                hint="branch/loop decisions would diverge"))

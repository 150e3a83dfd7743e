"""Word-level RTL components generated from a synthesised design.

The RTL view sits between the ETPN data path and the gate level: every
register, functional unit and multiplexer becomes an explicit component
with named control signals.  Control signals are the interface the
controller (or, during test, the ATPG — the paper assumes the
controller can be modified to support the test plan) drives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dfg.ops import OpKind


@dataclass(frozen=True)
class Ref:
    """A reference to a word-level signal source.

    ``kind`` is ``"reg"`` (register output), ``"unit"`` (functional-unit
    result), ``"port"`` (primary data input) or ``"const"`` (literal,
    ``ident`` holds its value as a string).
    """

    kind: str
    ident: str

    def __str__(self) -> str:  # pragma: no cover - trivial
        return f"{self.kind}:{self.ident}"


def reg_ref(reg: str) -> Ref:
    return Ref("reg", reg)


def unit_ref(unit: str) -> Ref:
    return Ref("unit", unit)


def port_ref(port: str) -> Ref:
    return Ref("port", port)


def const_ref(value: int) -> Ref:
    return Ref("const", str(value))


@dataclass
class RegisterSpec:
    """One data register with a one-hot-selected input mux.

    Control signals: ``{id}_load`` plus, when ``len(sources) > 1``,
    one select ``{id}_sel{i}`` per source.
    """

    reg_id: str
    sources: list[Ref] = field(default_factory=list)

    def load_signal(self) -> str:
        return f"{self.reg_id}_load"

    def select_signal(self, index: int) -> str:
        return f"{self.reg_id}_sel{index}"

    def needs_mux(self) -> bool:
        return len(self.sources) > 1


@dataclass
class UnitSpec:
    """One functional unit implementing a set of operations.

    Control signals: one ``{id}_op_{kind.name}`` per implemented kind
    when more than one, plus per-port one-hot mux selects
    ``{id}_p{port}_sel{i}`` when a port has several sources.
    """

    unit_id: str
    kinds: list[OpKind] = field(default_factory=list)
    port_sources: dict[int, list[Ref]] = field(default_factory=dict)

    def op_signal(self, kind: OpKind) -> str:
        return f"{self.unit_id}_op_{kind.name}"

    def select_signal(self, port: int, index: int) -> str:
        return f"{self.unit_id}_p{port}_sel{index}"

    def needs_op_select(self) -> bool:
        return len(self.kinds) > 1


@dataclass
class RTLDesign:
    """The complete word-level RTL of a synthesised design."""

    name: str
    bits: int
    registers: dict[str, RegisterSpec] = field(default_factory=dict)
    units: dict[str, UnitSpec] = field(default_factory=dict)
    #: Primary data-input port names (each ``bits`` wide).
    in_ports: list[str] = field(default_factory=list)
    #: Primary data-output port name -> register supplying it.
    out_ports: dict[str, str] = field(default_factory=dict)
    #: Condition output name -> unit producing it (1 bit wide).
    cond_ports: dict[str, str] = field(default_factory=dict)

    def control_signals(self) -> list[str]:
        """Every control signal name, sorted (the controller's output)."""
        signals: list[str] = []
        for reg in self.registers.values():
            signals.append(reg.load_signal())
            if reg.needs_mux():
                signals.extend(reg.select_signal(i)
                               for i in range(len(reg.sources)))
        for unit in self.units.values():
            if unit.needs_op_select():
                signals.extend(unit.op_signal(k) for k in unit.kinds)
            for port, sources in sorted(unit.port_sources.items()):
                if len(sources) > 1:
                    signals.extend(unit.select_signal(port, i)
                                   for i in range(len(sources)))
        return sorted(signals)

"""Timing-level property of ternary constant propagation, via hypothesis.

:func:`repro.gates.ternary.propagate` values a netlist with every
primary input and DFF Q unknown (X); the ATPG fault pruner calls a line
it values 0 or 1 constant.  That judgement is checked against an
independent oracle: a hand-rolled synchronous unit-delay event
simulation of one clock edge.  A line proved constant never toggles,
not even transiently, because ternary evaluation is monotone: every
instantaneous value of the line refines its all-X value.  An endpoint
(output or DFF D input) driven by such a line is a false path.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.gates import GateNetlist, GateType
from repro.gates.ternary import eval_gate, propagate

_COMB = (GateType.BUF, GateType.NOT, GateType.AND, GateType.OR,
         GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR)
_SOURCELIKE = (GateType.INPUT, GateType.CONST0, GateType.CONST1,
               GateType.DFF)


@st.composite
def netlists(draw):
    """A random acyclic netlist plus old/new values for its sources."""
    net = GateNetlist("prop")
    toggled = [net.add_input(f"i{n}") for n in range(draw(st.integers(1, 3)))]
    dffs = [net.add_dff(f"q{n}") for n in range(draw(st.integers(0, 2)))]
    toggled += dffs
    if draw(st.booleans()):
        net.add(GateType.CONST0)
    if draw(st.booleans()):
        net.add(GateType.CONST1)
    for _ in range(draw(st.integers(3, 18))):
        gtype = draw(st.sampled_from(_COMB))
        arity = 1 if gtype in (GateType.BUF, GateType.NOT) else 2
        pool = range(len(net.gates))
        fanins = tuple(draw(st.sampled_from(pool)) for _ in range(arity))
        net.add(gtype, fanins)
    pool = range(len(net.gates))
    for n in range(draw(st.integers(1, 3))):
        net.set_output(f"o{n}", draw(st.sampled_from(pool)))
    for q in dffs:
        net.connect_dff(q, draw(st.sampled_from(pool)))
    bits = st.lists(st.booleans(), min_size=len(toggled),
                    max_size=len(toggled))
    old = {g: int(v) for g, v in zip(toggled, draw(bits))}
    new = {g: int(v) for g, v in zip(toggled, draw(bits))}
    return net, old, new


def _steady(net: GateNetlist, sources: dict[int, int]) -> dict[int, int]:
    """Combinationally stable values; gid order is topological here."""
    values: dict[int, int] = {}
    for gate in net.gates:
        if gate.gtype in (GateType.INPUT, GateType.DFF):
            values[gate.gid] = sources[gate.gid]
        elif gate.gtype is GateType.CONST0:
            values[gate.gid] = 0
        elif gate.gtype is GateType.CONST1:
            values[gate.gid] = 1
        else:
            values[gate.gid] = eval_gate(
                gate.gtype, [values[f] for f in gate.fanins])
    return values


def simulate(net: GateNetlist, old: dict[int, int],
             new: dict[int, int]) -> dict[int, float]:
    """Unit-delay event simulation of one clock edge.

    Starts from the steady state under ``old``; at t=0 every input and
    DFF Q switches to ``new``; each combinational gate then re-evaluates
    its *previous-step* fanin values once per unit step until the net
    is quiet.  Returns the last toggle time per gid (absent = never
    toggled).
    """
    current = _steady(net, old)
    last_toggle: dict[int, float] = {}
    for gid, value in new.items():
        if current[gid] != value:
            current[gid] = value
            last_toggle[gid] = 0.0
    for t in range(1, len(net.gates) + 2):
        step = dict(current)
        quiet = True
        for gate in net.gates:
            if gate.gtype in _SOURCELIKE:
                continue
            value = eval_gate(gate.gtype,
                              [current[f] for f in gate.fanins])
            if value != current[gate.gid]:
                step[gate.gid] = value
                last_toggle[gate.gid] = float(t)
                quiet = False
        current = step
        if quiet:
            break
    return last_toggle


def _endpoint_drivers(net: GateNetlist) -> set[int]:
    """The gids whose signals the outputs and the DFF D inputs carry."""
    drivers = set(net.outputs.values())
    drivers.update(gate.fanins[0] for gate in net.dffs())
    return drivers


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(netlists())
    def test_proved_false_endpoints_never_toggle(self, drawn):
        net, old, new = drawn
        values = propagate(net, {})
        toggles = simulate(net, old, new)
        for gid in _endpoint_drivers(net):
            if values[gid] is not None:
                assert gid not in toggles, (
                    f"gate {gid} proved constant {values[gid]} yet "
                    f"toggled at {toggles[gid]}")

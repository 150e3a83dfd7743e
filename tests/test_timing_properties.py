"""Differential properties of the timing engine, via hypothesis.

Static timing analysis is checked against an independent oracle: a
hand-rolled synchronous unit-delay event simulation.  Under the unit
delay table (every gate 1.0, ``clk_q``/``setup``/``fanin_step`` 0) an
STA arrival is a pure level count, so on any netlist

* the simulated last-toggle time of an endpoint never exceeds its STA
  arrival (arrivals are sound upper bounds on real switching), and
* an endpoint the analyser proves *false* (arrival None, cone constant
  under ternary propagation) never toggles at all — not even
  transiently, because ternary evaluation is instantaneous-value
  monotone.
"""

from __future__ import annotations

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.analysis.timing import DelayTable, analyze_timing
from repro.gates import GateNetlist, GateType
from repro.gates.ternary import eval_gate

#: Every gate exactly one unit, no sequential margins: an arrival under
#: this table is the depth (in gates) of the worst live path.
UNIT = DelayTable(buf=1.0, not_=1.0, and_=1.0, or_=1.0, nand=1.0,
                  nor=1.0, xor=1.0, xnor=1.0, fanin_step=0.0,
                  clk_q=0.0, setup=0.0)

PERIOD = 100.0  # looser than any drawable cone, so slack never matters

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


def _timed_gid(net: GateNetlist, endpoint) -> int:
    """The gid whose signal the endpoint's arrival describes (a DFF
    endpoint times its D fanin's driver)."""
    if endpoint.kind == "dff":
        return net.gates[endpoint.gid].fanins[0]
    return endpoint.gid


class TestDifferential:
    @settings(max_examples=60, deadline=None)
    @given(netlists())
    def test_arrival_bounds_last_toggle(self, drawn):
        net, old, new = drawn
        report = analyze_timing(net, bits=4, table=UNIT, period=PERIOD,
                                k_paths=0)
        assert not report.cycle and not report.table_problems
        toggles = simulate(net, old, new)
        for endpoint in report.endpoints:
            if not endpoint.analysed or endpoint.arrival is None:
                continue
            last = toggles.get(_timed_gid(net, endpoint))
            if last is not None:
                assert last <= endpoint.arrival + 1e-9, (
                    f"{endpoint.name}: toggled at {last}, "
                    f"STA arrival {endpoint.arrival}")

    @settings(max_examples=60, deadline=None)
    @given(netlists())
    def test_proved_false_endpoints_never_toggle(self, drawn):
        net, old, new = drawn
        report = analyze_timing(net, bits=4, table=UNIT, period=PERIOD,
                                k_paths=0)
        toggles = simulate(net, old, new)
        for endpoint in report.endpoints:
            if endpoint.analysed and endpoint.arrival is None:
                assert _timed_gid(net, endpoint) not in toggles, (
                    f"{endpoint.name} proved false yet toggled")

"""Unit tests for the gate netlist container and compiled simulator."""

import pytest

from repro.errors import NetlistError
from repro.gates import CompiledCircuit, GateNetlist, GateType
from repro.gates.netlist import SOURCE_TYPES, UNARY_TYPES
from repro.gates.simulate import FULL


class TestNetlistStructure:
    def test_source_takes_no_fanins(self):
        net = GateNetlist("n")
        with pytest.raises(NetlistError):
            net.add(GateType.CONST0, (0,))

    def test_fanins_must_exist(self):
        net = GateNetlist("n")
        with pytest.raises(NetlistError):
            net.add(GateType.NOT, (5,))

    def test_gate_needs_fanins(self):
        net = GateNetlist("n")
        with pytest.raises(NetlistError):
            net.add(GateType.AND)

    @pytest.mark.parametrize("gtype", list(GateType))
    def test_arity_errors_name_the_rule(self, gtype):
        # Reference: the arity rules as membership of SOURCE_TYPES and
        # UNARY_TYPES, which ``add`` tests member by member, message for
        # message.
        for arity in range(4):
            if gtype in SOURCE_TYPES and arity:
                expected = f"{gtype} takes no fanins"
            elif gtype in UNARY_TYPES and arity != 1:
                expected = f"{gtype} takes exactly one fanin"
            elif gtype not in SOURCE_TYPES and not arity:
                expected = f"{gtype} needs fanins"
            else:
                expected = None
            net = GateNetlist("n")
            fanins = tuple(net.add_input(f"i{k}") for k in range(arity))
            if expected is None:
                assert net.gates[net.add(gtype, fanins)].gtype is gtype
            else:
                with pytest.raises(NetlistError) as error:
                    net.add(gtype, fanins)
                assert str(error.value) == expected

    def test_duplicate_input(self):
        net = GateNetlist("n")
        net.add_input("a")
        with pytest.raises(NetlistError):
            net.add_input("a")

    def test_dff_two_phase(self):
        net = GateNetlist("n")
        q = net.add_dff("q")
        a = net.add_input("a")
        d = net.add(GateType.XOR, (q, a))
        net.connect_dff(q, d)
        net.check_complete()
        assert net.gates[q].fanins == (d,)

    def test_unconnected_dff_detected(self):
        net = GateNetlist("n")
        net.add_dff("q")
        with pytest.raises(NetlistError):
            net.check_complete()

    def test_double_connect_rejected(self):
        net = GateNetlist("n")
        q = net.add_dff("q")
        a = net.add_input("a")
        net.connect_dff(q, a)
        with pytest.raises(NetlistError):
            net.connect_dff(q, a)

    def test_stats(self):
        net = GateNetlist("n")
        a = net.add_input("a")
        b = net.add_input("b")
        g = net.add(GateType.AND, (a, b))
        net.set_output("o", g)
        assert net.stats() == {"gates": 3, "combinational": 1, "dffs": 0,
                               "inputs": 2, "outputs": 1}


class TestCompiledSimulator:
    def _toggle_circuit(self):
        """A T flip-flop: q' = q XOR t."""
        net = GateNetlist("toggle")
        q = net.add_dff("q")
        t = net.add_input("t")
        d = net.add(GateType.XOR, (q, t))
        net.connect_dff(q, d)
        net.set_output("q", q)
        return CompiledCircuit(net)

    def test_sequential_state(self):
        circuit = self._toggle_circuit()
        outs, state = circuit.run([{"t": FULL}, {"t": 0}, {"t": FULL}])
        # Output shows the state *before* each clock edge.
        assert outs[0]["q"] == 0
        assert outs[1]["q"] == FULL
        assert outs[2]["q"] == FULL
        assert state == [0]

    def test_initial_state_override(self):
        circuit = self._toggle_circuit()
        outs, _ = circuit.run([{"t": 0}], state=[FULL])
        assert outs[0]["q"] == FULL

    def test_gate_types_compile(self):
        net = GateNetlist("all")
        a = net.add_input("a")
        b = net.add_input("b")
        net.set_output("and", net.add(GateType.AND, (a, b)))
        net.set_output("or", net.add(GateType.OR, (a, b)))
        net.set_output("nand", net.add(GateType.NAND, (a, b)))
        net.set_output("nor", net.add(GateType.NOR, (a, b)))
        net.set_output("xor", net.add(GateType.XOR, (a, b)))
        net.set_output("xnor", net.add(GateType.XNOR, (a, b)))
        net.set_output("not", net.add(GateType.NOT, (a,)))
        net.set_output("buf", net.add(GateType.BUF, (a,)))
        net.set_output("c1", net.add(GateType.CONST1))
        circuit = CompiledCircuit(net)
        outs, _ = circuit.run([{"a": 0b1100, "b": 0b1010}])
        o = outs[0]
        assert o["and"] == 0b1000
        assert o["or"] == 0b1110
        assert o["nand"] == FULL ^ 0b1000
        assert o["nor"] == FULL ^ 0b1110
        assert o["xor"] == 0b0110
        assert o["xnor"] == FULL ^ 0b0110
        assert o["not"] == FULL ^ 0b1100
        assert o["buf"] == 0b1100
        assert o["c1"] == FULL

    def test_fault_injection_hook(self):
        net = GateNetlist("inj")
        a = net.add_input("a")
        b = net.add_input("b")
        g = net.add(GateType.AND, (a, b))
        net.set_output("o", g)
        circuit = CompiledCircuit(net)
        fn = circuit.cycle_fn((g,))
        # Stuck-at-1 on the AND output in lane 1 only.
        lane1 = 1 << 1
        outs, _ = fn([0, 0], [], [FULL ^ lane1], [lane1], FULL)
        assert outs[0] == lane1  # good lanes 0, faulty lane forced to 1

    def test_cycle_fn_cached(self):
        circuit = self._toggle_circuit()
        assert circuit.cycle_fn(()) is circuit.cycle_fn(())

"""Tests for analysis-driven fault pruning (sequential ternary
constant propagation at the gate level)."""

from __future__ import annotations

import itertools
import random

from repro.atpg import (ATPGConfig, FaultSimulator, constant_lines,
                        full_fault_list, prune_untestable, run_atpg)
from repro.atpg.faults import Fault
from repro.gates.ternary import eval_gate as _eval_gate
from repro.bench import load
from repro.etpn.from_dfg import default_design
from repro.gates import expand_to_gates
from repro.gates.netlist import GateNetlist, GateType
from repro.gates.simulate import CompiledCircuit
from repro.rtl import generate_rtl


def bench_netlist(benchmark: str = "ex", bits: int = 4) -> GateNetlist:
    """A benchmark datapath netlist (rich in constant cones)."""
    return expand_to_gates(generate_rtl(default_design(load(benchmark)),
                                        bits))


def simulate_concretely(net: GateNetlist, sequence: list[dict[str, int]]
                        ) -> list[list[int]]:
    """Reference bit-level simulation, independent of CompiledCircuit.

    Returns the per-cycle list of every gate's value, starting from the
    all-zero DFF reset state.
    """
    state = {g.gid: 0 for g in net.dffs()}
    history = []
    for vector in sequence:
        values: list[int] = [0] * len(net.gates)
        for gate in net.gates:
            if gate.gtype is GateType.INPUT:
                values[gate.gid] = vector.get(gate.name, 0) & 1
            elif gate.gtype is GateType.CONST0:
                values[gate.gid] = 0
            elif gate.gtype is GateType.CONST1:
                values[gate.gid] = 1
            elif gate.gtype is GateType.DFF:
                values[gate.gid] = state[gate.gid]
            else:
                out = _eval_gate(gate.gtype,
                                 [values[f] for f in gate.fanins])
                assert out is not None
                values[gate.gid] = out
        for gate in net.dffs():
            state[gate.gid] = values[gate.fanins[0]]
        history.append(values)
    return history


class TestTernaryEval:
    def test_and_dominant_zero(self):
        assert _eval_gate(GateType.AND, [0, None]) == 0
        assert _eval_gate(GateType.AND, [1, None]) is None
        assert _eval_gate(GateType.AND, [1, 1]) == 1
        assert _eval_gate(GateType.NAND, [0, None]) == 1

    def test_or_dominant_one(self):
        assert _eval_gate(GateType.OR, [1, None]) == 1
        assert _eval_gate(GateType.OR, [0, None]) is None
        assert _eval_gate(GateType.NOR, [1, None]) == 0

    def test_xor_needs_all_known(self):
        assert _eval_gate(GateType.XOR, [1, None]) is None
        assert _eval_gate(GateType.XOR, [1, 0]) == 1
        assert _eval_gate(GateType.XNOR, [1, 1]) == 1

    def test_not_buf(self):
        assert _eval_gate(GateType.NOT, [0]) == 1
        assert _eval_gate(GateType.NOT, [None]) is None
        assert _eval_gate(GateType.BUF, [1]) == 1

    def test_exact_on_every_input(self):
        # The ternary value is exact for one gate: decided exactly when
        # every 0/1 completion of the X inputs gives the same output.
        boolean = {
            GateType.BUF: lambda bits: bits[0],
            GateType.NOT: lambda bits: 1 - bits[0],
            GateType.AND: lambda bits: int(all(bits)),
            GateType.NAND: lambda bits: 1 - int(all(bits)),
            GateType.OR: lambda bits: int(any(bits)),
            GateType.NOR: lambda bits: 1 - int(any(bits)),
            GateType.XOR: lambda bits: sum(bits) % 2,
            GateType.XNOR: lambda bits: 1 - sum(bits) % 2,
        }
        for gtype, function in boolean.items():
            unary = gtype in (GateType.BUF, GateType.NOT)
            for arity in ((1,) if unary else (1, 2, 3)):
                for values in itertools.product((0, 1, None), repeat=arity):
                    outs = {function([b if v is None else v
                                      for v, b in zip(values, bits)])
                            for bits in itertools.product((0, 1),
                                                          repeat=arity)}
                    expected = outs.pop() if len(outs) == 1 else None
                    assert _eval_gate(gtype, list(values)) == expected, (
                        gtype, values)


class TestConstantLines:
    def test_constant_cone_found(self):
        net = GateNetlist("cone")
        a = net.add_input("a")
        zero = net.add(GateType.CONST0)
        g = net.add(GateType.AND, (a, zero))    # always 0
        h = net.add(GateType.NOT, (g,))         # always 1
        free = net.add(GateType.NOT, (a,))      # depends on the input
        net.outputs["o"] = h
        net.outputs["p"] = free
        constants = constant_lines(net)
        assert constants[zero] == 0
        assert constants[g] == 0
        assert constants[h] == 1
        assert free not in constants
        assert a not in constants

    def test_unexcitable_dff_stays_at_reset(self):
        # next(dff) = AND(input, dff): from reset 0 it can never leave.
        net = GateNetlist("stuck")
        a = net.add_input("a")
        dff = net.add_dff("q")
        g = net.add(GateType.AND, (a, dff))
        net.connect_dff(dff, g)
        net.outputs["o"] = g
        constants = constant_lines(net)
        assert constants[dff] == 0
        assert constants[g] == 0

    def test_toggling_dff_is_not_constant(self):
        # next(dff) = NOT(dff): 0, 1, 0, 1, ... joins to X.
        net = GateNetlist("toggle")
        dff = net.add_dff("q")
        inv = net.add(GateType.NOT, (dff,))
        net.connect_dff(dff, inv)
        net.outputs["o"] = inv
        constants = constant_lines(net)
        assert dff not in constants
        assert inv not in constants

    def test_soundness_against_reference_simulation(self):
        """No input sequence may drive a proved-constant line off its
        value."""
        net = bench_netlist("ex", 4)
        constants = constant_lines(net)
        assert constants, "datapath netlists must have constant cones"
        rng = random.Random(2026)
        input_names = sorted(net.inputs)
        sequence = [{name: rng.getrandbits(1) for name in input_names}
                    for _ in range(60)]
        for cycle, values in enumerate(simulate_concretely(net, sequence)):
            for gid, expected in constants.items():
                assert values[gid] == expected, \
                    f"gate {gid} proved {expected}, differs at {cycle}"


class TestPruneUntestable:
    def test_polarity_matters(self):
        faults = [Fault(3, 0), Fault(3, 1), Fault(7, 0)]
        kept, pruned = prune_untestable(faults, {3: 0})
        assert pruned == [Fault(3, 0)]
        assert Fault(3, 1) in kept and Fault(7, 0) in kept

    def test_empty_constants_prunes_nothing(self):
        faults = [Fault(1, 0), Fault(2, 1)]
        kept, pruned = prune_untestable(faults, {})
        assert kept == faults and pruned == []

    def test_pruned_faults_are_undetectable(self):
        """Fault-simulate every pruned fault: none may be detected."""
        net = bench_netlist("tseng", 4)
        faults = full_fault_list(net)
        _kept, pruned = prune_untestable(faults, constant_lines(net))
        assert pruned, "expected pruned faults on a datapath netlist"
        simulator = FaultSimulator(CompiledCircuit(net))
        rng = random.Random(7)
        detected: set[Fault] = set()
        for _ in range(6):
            sequence = [{name: rng.getrandbits(1)
                         for name in simulator.circuit.input_names}
                        for _ in range(30)]
            detected |= simulator.run_sequence(sequence, pruned)
        assert not detected, f"pruned faults detected: {sorted(detected)}"


class TestEngineIntegration:
    def test_run_atpg_reports_pruned(self):
        net = bench_netlist("ex", 4)
        result = run_atpg(net, ATPGConfig(deterministic=False,
                                          analysis_prune=True))
        assert result.untestable_by_analysis > 0
        assert result.summary()["pruned_by_analysis"] == \
            result.untestable_by_analysis

    def test_prune_off_reports_zero(self):
        net = bench_netlist("ex", 4)
        result = run_atpg(net, ATPGConfig(deterministic=False,
                                          analysis_prune=False))
        assert result.untestable_by_analysis == 0

    def test_pruning_keeps_denominator_and_coverage(self):
        """Pruned faults stay in the denominator, and — being genuinely
        undetectable — pruning never changes what gets detected."""
        net = bench_netlist("ex", 4)
        with_prune = run_atpg(net, ATPGConfig(deterministic=False,
                                              analysis_prune=True))
        without = run_atpg(net, ATPGConfig(deterministic=False,
                                           analysis_prune=False))
        assert with_prune.total_faults == without.total_faults
        assert with_prune.detected == without.detected
        assert with_prune.untestable_by_analysis + with_prune.detected \
            <= with_prune.total_faults

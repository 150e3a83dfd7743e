"""Tests for the extension benchmarks (FIR/IIR/AR) across the stack."""

import random
from collections import Counter

import pytest

from repro.bench import EXTENSION_BENCHMARKS, load
from repro.etpn import default_design
from repro.gates import CompiledCircuit, expand_to_gates
from repro.gates.drive import run_functional
from repro.rtl import build_control_table, evaluate_dfg, generate_rtl
from repro.synth import run_camad, run_ours


class TestExtensionBenchmarks:
    @pytest.mark.parametrize("name", EXTENSION_BENCHMARKS)
    def test_build_and_validate(self, name):
        default_design(load(name)).validate()

    def test_fir8_structure(self):
        from repro.dfg import UnitClass, unit_class
        counts = Counter(unit_class(op.kind) for op in load("fir8"))
        assert counts[UnitClass.MULTIPLIER] == 8
        assert counts[UnitClass.ALU] == 7

    def test_fir8_behaviour(self):
        dfg = load("fir8")
        inputs = {f"x{i}": i + 1 for i in range(8)}
        inputs.update({f"k{i}": 2 for i in range(8)})
        values = evaluate_dfg(dfg, inputs, 16)
        assert values["out"] == sum(2 * (i + 1) for i in range(8))

    def test_iir_multidef_state(self):
        dfg = load("iir")
        assert dfg.defs_of("w0") == ["A1", "A3"]

    @pytest.mark.parametrize("name", EXTENSION_BENCHMARKS)
    def test_flows_synthesise(self, name):
        dfg = load(name)
        run_ours(dfg).design.validate()
        run_camad(dfg).design.validate()

    @pytest.mark.parametrize("name", EXTENSION_BENCHMARKS)
    def test_gate_level_equivalence(self, name):
        design = run_ours(load(name)).design
        bits = 4
        rtl = generate_rtl(design, bits)
        table = build_control_table(design, rtl)
        circuit = CompiledCircuit(expand_to_gates(rtl))
        rng = random.Random(3)
        for _ in range(3):
            inputs = {v.name: rng.randrange(1 << bits)
                      for v in design.dfg.inputs()}
            expected = evaluate_dfg(design.dfg, inputs, bits)
            got = run_functional(design, rtl, table, circuit, inputs)
            for out_port, value in got.outputs.items():
                assert value == expected[out_port.removeprefix("out_")]

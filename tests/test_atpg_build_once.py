"""ATPG builds each artefact once per run, and the shortcuts are exact.

* :func:`unroll` stamps frames from a one-frame template, and the frame
  ladder's smaller rungs are prefix views of one unrolled model.  Both
  must equal the frame-by-frame expansion below field by field, dict
  order included, on random netlists and on every benchmark's 4-bit
  netlists at their ladder rungs.
* A prefix engine shares its parent's evaluators and fault-free state;
  it must decide every fault like an engine built on a fresh model.
* One :func:`run_atpg` compiles one fault-simulation function and
  unrolls one model, and still runs the ladder's smaller rungs.
* The builders that translate a netlist in gid order reject one whose
  gids are out of topological order.
"""

from __future__ import annotations

import dataclasses

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.atpg.engine as atpg_engine
from repro.atpg import (ATPGConfig, PodemEngine, RandomPhaseConfig,
                        UnrolledCircuit, full_fault_list, run_atpg, unroll)
from repro.atpg.unroll import _CODE, OP_BUF, OP_CONST0, OP_PI
from repro.bench import load, names
from repro.cost import CostModel
from repro.errors import NetlistError
from repro.etpn.from_dfg import default_design
from repro.gates import (CompiledCircuit, GateNetlist, GateType,
                         expand_with_controller)
from repro.gates.netlist import Gate
from repro.rtl import build_control_table, generate_rtl
from repro.scan import unroll_full_scan
from repro.synth import run_ours

from .test_atpg_oracle import netlists


def reference_unroll(netlist: GateNetlist, frames: int) -> UnrolledCircuit:
    """The original expansion: one node at a time, frame by frame."""
    netlist.check_complete()
    model = UnrolledCircuit(frames)

    def new_node(op: int, fanins: tuple[int, ...]) -> int:
        uid = len(model.ops)
        model.ops.append(op)
        model.fanins.append(fanins)
        model.fanouts.append([])
        model.depth.append(
            1 + max(model.depth[f] for f in fanins) if fanins else 0)
        for fin in fanins:
            model.fanouts[fin].append(uid)
        return uid

    reset_uid = new_node(OP_CONST0, ())
    input_name_of = {gid: name for name, gid in netlist.inputs.items()}
    uid_of: dict[tuple[int, int], int] = {}
    for frame in range(frames):
        for gate in netlist.gates:
            if gate.gtype == GateType.DFF:
                if frame == 0:
                    source = reset_uid
                else:
                    d_driver = gate.fanins[0]
                    source = uid_of[(frame - 1, d_driver)]
                uid = new_node(OP_BUF, (source,))
            elif gate.gtype == GateType.INPUT:
                uid = new_node(OP_PI, ())
                model.pi_names[uid] = (frame, input_name_of[gate.gid])
            else:
                mapped = tuple(uid_of[(frame, f)] for f in gate.fanins)
                uid = new_node(_CODE[gate.gtype], mapped)
            uid_of[(frame, gate.gid)] = uid
            model.site_uids.setdefault(gate.gid, []).append(uid)
        for name, gid in netlist.outputs.items():
            model.po_names[uid_of[(frame, gid)]] = (frame, name)
    return model


def fields(model: UnrolledCircuit) -> dict[str, object]:
    """Every field, with dicts as item lists so their order counts."""
    result = {}
    for f in dataclasses.fields(model):
        value = getattr(model, f.name)
        result[f.name] = (list(value.items()) if isinstance(value, dict)
                          else value)
    return result


def ladder(max_frames: int) -> list[int]:
    return sorted({max(2, max_frames // 4), max(2, max_frames // 2),
                   max_frames})


# ----------------------------------------------------------------------
# Stamped frames and prefix views equal the frame-by-frame expansion
# ----------------------------------------------------------------------
@settings(max_examples=80, deadline=None)
@given(netlists(), st.integers(1, 4), st.integers(0, 3))
def test_unroll_and_prefix_equal_the_reference(net, frames, extra):
    expected = fields(reference_unroll(net, frames))
    assert fields(unroll(net, frames)) == expected
    assert fields(unroll(net, frames + extra).prefix(frames)) == expected


def _atpg_netlist(benchmark: str, flow: str) -> tuple[GateNetlist, int]:
    """A 4-bit cell's ATPG netlist and its ladder's largest rung."""
    dfg = load(benchmark)
    design = (default_design(dfg) if flow == "default" else
              run_ours(dfg, cost_model=CostModel(bits=4)).design)
    rtl = generate_rtl(design, 4)
    table = build_control_table(design, rtl)
    return (expand_with_controller(rtl, table),
            2 * table.phase_count + 1)


@pytest.mark.slow
@pytest.mark.parametrize("name", names())
def test_benchmark_ladders_equal_the_reference(name):
    for flow in ("default", "ours"):
        net, max_frames = _atpg_netlist(name, flow)
        rungs = ladder(max_frames)
        largest = unroll(net, rungs[-1])
        for frames in rungs:
            expected = fields(reference_unroll(net, frames))
            assert fields(unroll(net, frames)) == expected, (flow, frames)
            assert fields(largest.prefix(frames)) == expected, (flow,
                                                                frames)


def test_prefix_rejects_frames_outside_the_model():
    net = GateNetlist("one")
    net.set_output("o", net.add_input("i"))
    model = unroll(net, 3)
    assert model.prefix(3) is model
    for frames in (0, 4):
        with pytest.raises(ValueError):
            model.prefix(frames)


@settings(max_examples=60, deadline=None)
@given(netlists(), st.integers(1, 3), st.integers(1, 3))
def test_prefix_engine_decides_like_a_fresh_engine(net, frames, extra):
    faults = full_fault_list(net)
    fresh = PodemEngine(unroll(net, frames))
    largest = PodemEngine(unroll(net, frames + extra))
    twin = largest.prefix(frames)
    for fault in faults:
        assert twin.generate(fault) == fresh.generate(fault)
    # The largest engine is unchanged by serving a prefix.
    reference = PodemEngine(unroll(net, frames + extra))
    for fault in faults:
        assert largest.generate(fault) == reference.generate(fault)


# ----------------------------------------------------------------------
# One run, one model, one compiled function
# ----------------------------------------------------------------------
def test_one_unroll_and_one_compile_per_run(monkeypatch):
    net, max_frames = _atpg_netlist("ex", "ours")
    compiles: list[tuple[int, ...]] = []
    unrolls: list[int] = []
    rungs_used: set[int] = set()
    compile_fn, unroll_fn = CompiledCircuit._compile, atpg_engine.unroll
    generate = PodemEngine.generate

    def counted_compile(self, fault_sites):
        compiles.append(fault_sites)
        return compile_fn(self, fault_sites)

    def counted_unroll(netlist, frames):
        unrolls.append(frames)
        return unroll_fn(netlist, frames)

    def recorded_generate(self, fault):
        rungs_used.add(self.model.frames)
        return generate(self, fault)

    monkeypatch.setattr(CompiledCircuit, "_compile", counted_compile)
    monkeypatch.setattr(atpg_engine, "unroll", counted_unroll)
    monkeypatch.setattr(PodemEngine, "generate", recorded_generate)
    result = run_atpg(net, ATPGConfig(
        random=RandomPhaseConfig(max_sequences=1, sequence_length=4),
        max_frames=max_frames, max_backtracks=16, fault_fraction=0.3))
    assert result.detected_deterministic > 0
    assert len(compiles) == 1
    assert unrolls == [max_frames]
    assert rungs_used == set(ladder(max_frames))


# ----------------------------------------------------------------------
# Netlists out of gid order are rejected, not mistranslated
# ----------------------------------------------------------------------
def _out_of_order_net() -> GateNetlist:
    """Acyclic, complete, but gate 2 reads gate 3."""
    net = GateNetlist("out_of_order")
    a = net.add_input("a")
    b = net.add_input("b")
    net.gates.append(Gate(2, GateType.NOT, (3,)))
    net.gates.append(Gate(3, GateType.AND, (a, b)))
    net.set_output("o", 2)
    return net


@pytest.mark.parametrize("build", [
    lambda net: unroll(net, 2),
    unroll_full_scan,
    CompiledCircuit,
    run_atpg,
], ids=["unroll", "unroll_full_scan", "CompiledCircuit", "run_atpg"])
def test_out_of_order_netlist_is_rejected(build):
    net = _out_of_order_net()
    net.check_complete()  # acyclic: only the gid order is wrong
    with pytest.raises(NetlistError, match="out_of_order: gate 2 reads"):
        build(net)

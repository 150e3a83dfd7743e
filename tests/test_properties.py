"""Property-based tests (hypothesis) over core invariants.

A random-DFG strategy drives the scheduling/allocation stack: every
generated behaviour must schedule legally, allocate without overlap,
survive merger rescheduling, and keep its testability measures in
range.  Word-level gate blocks are checked against the reference
semantics on random operand pairs.
"""

from __future__ import annotations

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.alloc import left_edge
from repro.bench import names
from repro.dfg import DFGBuilder, OpKind, variable_lifetimes
from repro.dfg.analysis import asap_steps, critical_path_length
from repro.dfg.lifetime import max_overlap
from repro.etpn import default_design
from repro.harness.experiment import FLOW_ORDER, synthesize_flow
from repro.rtl import apply_op, build_control_table, generate_rtl
from repro.sched import check_precedence, compact, frames, schedule_length
from repro.sched.resched import merge_order_candidates
from repro.testability import analyze

_BINARY_KINDS = [OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.AND, OpKind.OR,
                 OpKind.XOR]


@st.composite
def dfgs(draw, looped=False):
    """Random acyclic DFGs: each op reads earlier values or inputs.

    With ``looped``, a final comparison drives a ``loop while`` back
    edge."""
    num_inputs = draw(st.integers(2, 5))
    num_ops = draw(st.integers(1, 12))
    builder = DFGBuilder("prop")
    inputs = [f"i{k}" for k in range(num_inputs)]
    builder.inputs(*inputs)
    available = list(inputs)
    for index in range(num_ops):
        kind = draw(st.sampled_from(_BINARY_KINDS))
        lhs = draw(st.sampled_from(available))
        rhs = draw(st.sampled_from(available))
        # Occasionally redefine an existing variable (multi-def).
        if available != inputs and draw(st.booleans()) and draw(st.booleans()):
            target = draw(st.sampled_from(
                [v for v in available if v not in inputs]))
        else:
            target = f"v{index}"
        builder.op(f"N{index}", kind, target, lhs, rhs)
        if target not in available:
            available.append(target)
    if looped:
        builder.compare("C", "<", "c", draw(st.sampled_from(available)),
                        draw(st.sampled_from(available)))
        builder.loop("c")
    return builder.build()


@settings(max_examples=60, deadline=None)
@given(dfgs())
def test_asap_is_legal_and_minimal(dfg):
    steps = asap_steps(dfg)
    check_precedence(dfg, steps)
    assert schedule_length(steps) == critical_path_length(dfg)


@settings(max_examples=60, deadline=None)
@given(dfgs())
def test_asap_never_after_alap(dfg):
    asap = asap_steps(dfg)
    frame = frames(dfg, critical_path_length(dfg))
    assert all(asap[o] == frame[o][0] <= frame[o][1] for o in dfg.operations)


@settings(max_examples=60, deadline=None)
@given(dfgs())
def test_compact_preserves_legality(dfg):
    steps = {o: s * 3 + 1 for o, s in asap_steps(dfg).items()}
    compacted = compact(steps)
    check_precedence(dfg, compacted)
    assert min(compacted.values()) == 0


@settings(max_examples=60, deadline=None)
@given(dfgs())
def test_left_edge_is_optimal_and_disjoint(dfg):
    lifetimes = variable_lifetimes(dfg, asap_steps(dfg))
    assignment = left_edge(lifetimes)
    groups: dict[str, list[str]] = {}
    for var, reg in assignment.items():
        groups.setdefault(reg, []).append(var)
    for variables in groups.values():
        for i, a in enumerate(variables):
            for b in variables[i + 1:]:
                assert not lifetimes[a].overlaps(lifetimes[b])
    # Left-edge on sorted intervals achieves the max-overlap bound.
    assert len(groups) == max(max_overlap(lifetimes), 1) \
        or len(groups) == max_overlap(lifetimes)


@settings(max_examples=40, deadline=None)
@given(dfgs())
def test_default_design_always_valid(dfg):
    design = default_design(dfg)
    design.validate()
    assert design.execution_time == design.num_steps


@settings(max_examples=30, deadline=None)
@given(dfgs())
def test_testability_measures_in_range(dfg):
    analysis = analyze(default_design(dfg).datapath)
    for node in analysis.all_nodes().values():
        assert 0.0 <= node.cc <= 1.0
        assert 0.0 <= node.co <= 1.0
        assert node.sc >= 0.0
        assert node.so >= 0.0


@settings(max_examples=30, deadline=None)
@given(dfgs(), st.integers(0, 2 ** 31))
def test_first_feasible_merger_revalidates(dfg, seed):
    """Any feasible merger outcome must produce a valid design."""
    import random

    from repro.cost import CostModel
    from repro.synth import compatible_pairs, try_merge

    design = default_design(dfg)
    pairs = compatible_pairs(design)
    if not pairs:
        return
    rng = random.Random(seed)
    pair = rng.choice(pairs)
    outcome = try_merge(design, pair.kind, pair.node_a, pair.node_b,
                        CostModel(bits=4))
    if outcome is not None:
        outcome.design.validate()
        assert outcome.design.num_steps >= 1


def assert_chain(design) -> None:
    """The control part is the chain whose critical path E is the step
    count: the control table realising it has a load phase and then one
    phase per control step (a loop's back edge adds none)."""
    table = build_control_table(design, generate_rtl(design, 4))
    assert table.phase_count == design.execution_time + 1


@pytest.mark.parametrize("dfg_name", names())
def test_flow_control_parts_are_chains(dfg_name):
    for flow in FLOW_ORDER:
        assert_chain(synthesize_flow(dfg_name, flow, 4))


@settings(max_examples=40, deadline=None)
@given(st.booleans().flatmap(lambda looped: dfgs(looped=looped)))
def test_random_control_parts_are_chains(dfg):
    assert_chain(default_design(dfg))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 9), min_size=0, max_size=6),
       st.lists(st.integers(0, 9), min_size=0, max_size=6))
def test_merge_order_candidates_are_interleavings(ranks_a, ranks_b):
    seq_a = [f"a{k}" for k in range(len(ranks_a))]
    seq_b = [f"b{k}" for k in range(len(ranks_b))]
    rank = {**{n: r for n, r in zip(seq_a, ranks_a)},
            **{n: r for n, r in zip(seq_b, ranks_b)}}
    # Ranks within a module are non-decreasing in practice; sort them.
    seq_a.sort(key=lambda n: rank[n])
    seq_b.sort(key=lambda n: rank[n])
    for candidate in merge_order_candidates(seq_a, seq_b, rank):
        assert sorted(candidate) == sorted(seq_a + seq_b)
        assert [x for x in candidate if x in seq_a] == seq_a
        assert [x for x in candidate if x in seq_b] == seq_b


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV,
                        OpKind.LT, OpKind.EQ, OpKind.XOR, OpKind.SHR]),
       st.integers(0, 255), st.integers(0, 255))
def test_semantics_total_and_bounded(kind, a, b):
    result = apply_op(kind, a, b, 8)
    assert 0 <= result <= 255

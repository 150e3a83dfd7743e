"""Exhaustive oracles for the ATPG stack, via hypothesis.

Every engine whose answer reaches a table is checked here against an
independent semantics on random small sequential netlists (at most 4
primary inputs, 3 DFFs and 20 gates; 32 to 48 gates for the
fault-simulator property, so its fault lists span several 63-lane
chunks, and 64 to 80 for its effort accounting, so they span at least
three).  The oracle is a brute-force simulator written below: it
simulates *every* input sequence of k <= 3 frames at once, one sequence
per bit of a Python int, for the good machine and one faulty machine.
Against it:

* a PODEM success is sound: every completion of the returned partial
  assignment detects the fault within k frames, and the fault simulator
  detects the sequence the engine expands it into;
* a non-aborted "untestable" verdict at one frame is exhaustive: no
  input vector detects the fault;
* analysis-based pruning never drops a fault some sequence of <= 3
  frames detects;
* the parallel-fault simulator agrees with a one-fault-at-a-time
  simulator, also for fault lists spanning several 63-lane chunks and
  over successive calls on one simulator, whose compiled function
  gains hooks as new fault sites arrive;
* its groups, as wide as their faults, count the cycles, groups and
  budget steps of simulating 63-lane groups one after another, and a
  budget that runs out mid-group leaves a subset of the detections.

More properties pin the PODEM engine to the reference algorithm it
was optimised from.  The engine's packed twin-machine tables equal the
original ``if`` chain on both halves of every tuple of packed values,
and its pin and line-test tables equal their definitions over (good,
faulty).  A self-contained reference engine, on separate good and
faulty lists, recomputes the whole circuit per fault and rescans every
line for the D-frontier; it returns equal :class:`PodemResult` objects
on every fault of the random nets and on fixed fault samples of the
4-bit Ex netlists.
"""

from __future__ import annotations

import copy
import itertools
import random
from functools import lru_cache

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.atpg import (Fault, FaultSimulator, PodemEngine, constant_lines,
                        full_fault_list, prune_untestable, unroll)
from repro.atpg.engine import _assignment_to_sequence
from repro.atpg.podem import (_BLOCKED, _CONTROL, _GATE, _HAS_X, _IS_D, _PIN,
                               _X_GOOD, ONE, X, ZERO, PodemResult,
                               PodemStats)
from repro.atpg.unroll import (OP_AND, OP_BUF, OP_CONST0, OP_CONST1,
                               OP_NAND, OP_NOR, OP_NOT, OP_OR, OP_PI,
                               OP_XNOR, OP_XOR, UnrolledCircuit)
from repro.errors import ATPGError
from repro.gates import (FULL, CompiledCircuit, GateNetlist, GateType,
                         expand_with_controller)
from repro.harness import ExperimentConfig, run_cell
from repro.harness.experiment import FLOW_ORDER, synthesize_flow_result
from repro.rtl import build_control_table, generate_rtl
from repro.runtime import Budget

MAX_FRAMES = 3

_COMB = (GateType.BUF, GateType.NOT, GateType.AND, GateType.OR,
         GateType.NAND, GateType.NOR, GateType.XOR, GateType.XNOR)


@st.composite
def netlists(draw, min_gates: int = 1, max_gates: int = 20) -> GateNetlist:
    """A random sequential netlist; DFF feedback may close anywhere."""
    net = GateNetlist("oracle")
    for n in range(draw(st.integers(1, 4))):
        net.add_input(f"i{n}")
    dffs = [net.add_dff(f"q{n}") for n in range(draw(st.integers(0, 3)))]
    if draw(st.booleans()):
        net.add(draw(st.sampled_from((GateType.CONST0, GateType.CONST1))))
    for _ in range(draw(st.integers(min_gates, max_gates))):
        gtype = draw(st.sampled_from(_COMB))
        arity = (1 if gtype in (GateType.BUF, GateType.NOT)
                 else draw(st.integers(2, 3)))
        pool = st.integers(0, len(net.gates) - 1)
        net.add(gtype, tuple(draw(pool) for _ in range(arity)))
    pool = st.integers(0, len(net.gates) - 1)
    for n in range(draw(st.integers(1, 3))):
        net.set_output(f"o{n}", draw(pool))
    for q in dffs:
        net.connect_dff(q, draw(pool))
    return net


# ----------------------------------------------------------------------
# The brute-force oracle
# ----------------------------------------------------------------------
@lru_cache(maxsize=None)
def _patterns(count: int) -> tuple[int, ...]:
    """Bit s of pattern j is bit j of s, over all 2**count sequences."""
    full = (1 << (1 << count)) - 1
    patterns = []
    for j in range(count):
        block = 1 << j
        repeat = full // ((1 << (2 * block)) - 1)
        patterns.append(repeat * (((1 << block) - 1) << block))
    return tuple(patterns)


def _evaluate(gtype: GateType, values: list[int], full: int) -> int:
    if gtype is GateType.BUF:
        return values[0]
    if gtype is GateType.NOT:
        return full ^ values[0]
    acc = values[0]
    for v in values[1:]:
        if gtype in (GateType.AND, GateType.NAND):
            acc &= v
        elif gtype in (GateType.OR, GateType.NOR):
            acc |= v
        else:
            acc ^= v
    if gtype in (GateType.NAND, GateType.NOR, GateType.XNOR):
        acc ^= full
    return acc


def simulate(net: GateNetlist, vectors: list[dict[str, int]], full: int,
             fault: Fault | None = None) -> list[list[int]]:
    """Per-frame output lanes from the all-zero reset state.

    Each lane is an independent machine; ``fault`` forces its line in
    every lane and every frame (a stuck DFF output included).
    """
    state = {gate.gid: 0 for gate in net.dffs()}
    outputs = []
    for vector in vectors:
        values = [0] * len(net.gates)
        for gate in net.gates:
            if gate.gtype is GateType.INPUT:
                value = vector[gate.name]
            elif gate.gtype is GateType.DFF:
                value = state[gate.gid]
            elif gate.gtype is GateType.CONST0:
                value = 0
            elif gate.gtype is GateType.CONST1:
                value = full
            else:
                value = _evaluate(gate.gtype,
                                  [values[f] for f in gate.fanins], full)
            if fault is not None and gate.gid == fault.gid:
                value = full if fault.stuck else 0
            values[gate.gid] = value
        outputs.append([values[gid] for _, gid in sorted(net.outputs.items())])
        state = {gate.gid: values[gate.fanins[0]] for gate in net.dffs()}
    return outputs


class Exhaustive:
    """Every input sequence of ``frames`` frames, one per lane."""

    def __init__(self, net: GateNetlist, frames: int) -> None:
        self.net = net
        self.names = sorted(net.inputs)
        patterns = _patterns(len(self.names) * frames)
        self.full = (1 << (1 << len(patterns))) - 1
        self.vectors = [{name: patterns[frame * len(self.names) + i]
                         for i, name in enumerate(self.names)}
                        for frame in range(frames)]
        self.good = simulate(net, self.vectors, self.full)

    def detecting(self, fault: Fault) -> int:
        """Lanes (sequences) that detect ``fault`` within the frames."""
        lanes = 0
        bad = simulate(self.net, self.vectors, self.full, fault)
        for good_frame, bad_frame in zip(self.good, bad):
            for g, b in zip(good_frame, bad_frame):
                lanes |= g ^ b
        return lanes

    def completions(self, assignment: dict[tuple[int, str], int]) -> int:
        """Lanes that agree with a partial (frame, input) assignment."""
        lanes = self.full
        for (frame, name), bit in assignment.items():
            pattern = self.vectors[frame][name]
            lanes &= pattern if bit else self.full ^ pattern
        return lanes


def naive_detected(net: GateNetlist, sequence: list[dict[str, int]],
                   faults: list[Fault]) -> set[Fault]:
    """One fault at a time, one machine at a time."""
    good = simulate(net, sequence, 1)
    return {fault for fault in faults
            if simulate(net, sequence, 1, fault) != good}


def first_detections(net: GateNetlist, sequence: list[dict[str, int]],
                     faults: list[Fault]) -> dict[Fault, int]:
    """The cycle each fault the sequence detects is first seen at."""
    good = simulate(net, sequence, 1)
    first = {}
    for fault in faults:
        outputs = simulate(net, sequence, 1, fault)
        for cycle, (seen, expected) in enumerate(zip(outputs, good)):
            if seen != expected:
                first[fault] = cycle
                break
    return first


class GroupOf63Simulator(FaultSimulator):
    """The fault simulator with one 64-lane word per group: 63 faults,
    simulated until all of them are detected, one group after another.
    The reference for the effort counts of wider groups."""

    def run_sequence(self, vectors, faults):
        detected: set[Fault] = set()
        if not faults:
            return detected
        fn = self._cycle_fn(faults)
        for start in range(0, len(faults), 63):
            if self.budget is not None and self.budget.exhausted():
                break  # partial detection set; caller sees the budget
            group = faults[start:start + 63]
            detected |= self._run_group(fn, vectors, group)
        return detected

    def _run_group(self, fn, vectors, group):
        nmask = [FULL] * len(self._site_index)
        fval = [0] * len(self._site_index)
        for offset, fault in enumerate(group):
            lane_bit = 1 << (offset + 1)   # lane 0 = good machine
            k = self._site_index[fault.gid]
            nmask[k] &= ~lane_bit
            if fault.stuck:
                fval[k] |= lane_bit
        state = self.circuit.zero_state()
        detected_lanes = 0
        all_lanes = sum(1 << (i + 1) for i in range(len(group)))
        self.stats.groups_simulated += 1
        budget = self.budget
        for cycle in vectors:
            if budget is not None and not budget.charge():
                break
            pi = [(FULL if cycle.get(name, 0) & 1 else 0)
                  for name in self.circuit.input_names]
            outs, state = fn(pi, state, nmask, fval, FULL)
            for value in outs:
                good = FULL if value & 1 else 0
                detected_lanes |= value ^ good
            self.stats.cycles_simulated += 1
            if (detected_lanes & all_lanes) == all_lanes:
                break
        result: set[Fault] = set()
        for lane_offset, fault in enumerate(group):
            if detected_lanes & (1 << (lane_offset + 1)):
                result.add(fault)
        return result


# ----------------------------------------------------------------------
# The reference PODEM: the original whole-circuit algorithm
# ----------------------------------------------------------------------
def reference_eval3(op: int, values: list[int]) -> int:
    """3-valued evaluation of one gate (the original ``if`` chain)."""
    if op == OP_CONST0:
        return ZERO
    if op == OP_CONST1:
        return ONE
    if op == OP_BUF:
        return values[0]
    if op == OP_NOT:
        v = values[0]
        return X if v == X else 1 - v
    if op in (OP_AND, OP_NAND):
        if ZERO in values:
            result = ZERO
        elif X in values:
            result = X
        else:
            result = ONE
        if op == OP_NAND and result != X:
            result = 1 - result
        return result
    if op in (OP_OR, OP_NOR):
        if ONE in values:
            result = ONE
        elif X in values:
            result = X
        else:
            result = ZERO
        if op == OP_NOR and result != X:
            result = 1 - result
        return result
    if op in (OP_XOR, OP_XNOR):
        if X in values:
            return X
        result = 0
        for v in values:
            result ^= v
        if op == OP_XNOR:
            result = 1 - result
        return result
    raise ATPGError(f"cannot evaluate op {op}")


class ReferencePodem:
    """PODEM as originally written: a full 3-valued pass per fault, a
    scan of every line per D-frontier, no maintained D-line set.

    It keeps its own ``good``/``faulty`` lists and inherits nothing from
    :class:`PodemEngine`, so a change of the engine's value
    representation cannot move the reference along with it.
    """

    def __init__(self, model: UnrolledCircuit, max_backtracks: int = 64,
                 max_implications: int = 2_000_000) -> None:
        self.model = model
        self.max_backtracks = max_backtracks
        self.max_implications = max_implications
        self._pos = model.po_set()

    def prefix(self, frames: int) -> ReferencePodem:
        twin = copy.copy(self)
        twin.model = model = self.model.prefix(frames)
        twin._pos = model.po_set()
        return twin

    def generate(self, fault: Fault) -> PodemResult:
        model = self.model
        self.sites = set(model.site_uids.get(fault.gid, []))
        if not self.sites:
            raise ATPGError(f"fault {fault} has no site in the model")
        self.stuck = fault.stuck
        self.stats = PodemStats()
        self._trail: list[tuple[int, int, int]] = []
        self._pin_and_init()

        decisions: list[tuple[int, int, bool, int]] = []
        result = PodemResult(False, stats=self.stats)
        while True:
            if self.stats.backtracks > self.max_backtracks \
                    or self.stats.implications > self.max_implications:
                result.aborted = True
                result.abort_reason = "effort_limit"
                return result
            if self._detected():
                result.success = True
                result.assignment = {
                    model.pi_names[uid]: self.good[uid]
                    for uid in model.pi_names if self.good[uid] != X}
                return result
            objective = self._objective()
            if objective is not None:
                pi = self._backtrace(*objective)
                if pi is not None:
                    uid, value = pi
                    decisions.append((uid, value, False, len(self._trail)))
                    self.stats.decisions += 1
                    self._assign(uid, value)
                    continue
            flipped = False
            while decisions:
                uid, value, tried, mark = decisions.pop()
                self._undo_to(mark)
                self.stats.backtracks += 1
                if not tried:
                    decisions.append((uid, 1 - value, True, mark))
                    self._assign(uid, 1 - value)
                    flipped = True
                    break
            if not flipped:
                return result

    def _pin_and_init(self) -> None:
        model = self.model
        self.good = [X] * model.size
        self.faulty = [X] * model.size
        for uid in range(model.size):
            op = model.ops[uid]
            if op == OP_CONST0:
                self.good[uid] = self.faulty[uid] = ZERO
            elif op == OP_CONST1:
                self.good[uid] = self.faulty[uid] = ONE
            elif op != OP_PI:
                fanins = model.fanins[uid]
                self.good[uid] = reference_eval3(
                    op, [self.good[f] for f in fanins])
                self.faulty[uid] = reference_eval3(
                    op, [self.faulty[f] for f in fanins])
                self.stats.implications += 1
            if uid in self.sites:
                self.faulty[uid] = self.stuck

    def _assign(self, uid: int, value: int) -> None:
        self._set(uid, value, value if uid not in self.sites else self.stuck)
        queue = list(self.model.fanouts[uid])
        while queue:
            current = queue.pop()
            op = self.model.ops[current]
            fanins = self.model.fanins[current]
            new_g = reference_eval3(op, [self.good[f] for f in fanins])
            new_f = (self.stuck if current in self.sites
                     else reference_eval3(op, [self.faulty[f]
                                               for f in fanins]))
            self.stats.implications += 1
            if new_g != self.good[current] or new_f != self.faulty[current]:
                self._set(current, new_g, new_f)
                queue.extend(self.model.fanouts[current])

    def _set(self, uid: int, g: int, f: int) -> None:
        self._trail.append((uid, self.good[uid], self.faulty[uid]))
        self.good[uid] = g
        self.faulty[uid] = f

    def _undo_to(self, mark: int) -> None:
        while len(self._trail) > mark:
            uid, g, f = self._trail.pop()
            self.good[uid] = g
            self.faulty[uid] = f

    def _is_d(self, uid: int) -> bool:
        g, f = self.good[uid], self.faulty[uid]
        return g != X and f != X and g != f

    def _detected(self) -> bool:
        return any(self._is_d(uid) for uid in self.model.po_names)

    def _objective(self) -> tuple[int, int] | None:
        if not any(self._is_d(uid) for uid in self.sites):
            want = 1 - self.stuck
            for uid in sorted(self.sites):
                if self.good[uid] == X:
                    return (uid, want)
            return None
        for uid in self._d_frontier():
            if not self._x_path_to_po(uid):
                continue
            control, _ = _CONTROL.get(self.model.ops[uid], (None, False))
            for fin in self.model.fanins[uid]:
                if self.good[fin] == X:
                    return (fin, ONE if control is None else 1 - control)
        return None

    def _d_frontier(self) -> list[int]:
        frontier = []
        for uid in range(self.model.size):
            if self.good[uid] != X and self.faulty[uid] != X \
                    and self.good[uid] == self.faulty[uid]:
                continue
            if self._is_d(uid):
                continue
            if any(self._is_d(f) for f in self.model.fanins[uid]):
                frontier.append(uid)
        return frontier

    def _x_path_to_po(self, uid: int) -> bool:
        stack = [uid]
        seen = {uid}
        while stack:
            current = stack.pop()
            if current in self._pos:
                return True
            for fanout in self.model.fanouts[current]:
                if fanout in seen:
                    continue
                g, f = self.good[fanout], self.faulty[fanout]
                blocked = g != X and f != X and g == f
                if not blocked:
                    seen.add(fanout)
                    stack.append(fanout)
        return False

    def _backtrace(self, uid: int, value: int) -> tuple[int, int] | None:
        current, desired = uid, value
        for _ in range(self.model.size + 1):
            op = self.model.ops[current]
            if op == OP_PI:
                return (current, desired)
            control, inverts = _CONTROL.get(op, (None, False))
            if inverts:
                desired = 1 - desired
            x_inputs = [f for f in self.model.fanins[current]
                        if self.good[f] == X]
            if not x_inputs:
                return None
            depth = self.model.depth
            if op in (OP_XOR, OP_XNOR):
                current = min(x_inputs, key=lambda f: depth[f])
                continue
            if control is not None and desired == control:
                current = min(x_inputs, key=lambda f: depth[f])
                desired = control
            else:
                current = max(x_inputs, key=lambda f: depth[f])
                if control is not None:
                    desired = 1 - control
        return None


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(netlists())
def test_podem_verdicts_agree_with_exhaustive_simulation(net):
    circuit = CompiledCircuit(net)
    simulator = FaultSimulator(circuit)
    faults = full_fault_list(net)
    for frames in range(1, MAX_FRAMES + 1):
        oracle = Exhaustive(net, frames)
        engine = PodemEngine(unroll(net, frames))
        for fault in faults:
            result = engine.generate(fault)
            if result.success:
                missed = (oracle.completions(result.assignment)
                          & ~oracle.detecting(fault))
                assert not missed, (fault, frames, result.assignment)
                sequence = _assignment_to_sequence(
                    circuit, result.assignment, frames, random.Random(0))
                assert simulator.run_sequence(sequence, [fault]) == {fault}
            elif frames == 1 and not result.aborted:
                assert not oracle.detecting(fault), fault


@settings(max_examples=60, deadline=None)
@given(netlists())
def test_pruning_never_drops_a_detectable_fault(net):
    _, pruned = prune_untestable(full_fault_list(net), constant_lines(net))
    oracle = Exhaustive(net, MAX_FRAMES)
    for fault in pruned:
        assert not oracle.detecting(fault), fault


@settings(max_examples=40, deadline=None)
@given(netlists(min_gates=32, max_gates=48), st.data())
def test_fault_simulator_matches_one_fault_at_a_time(net, data):
    names = sorted(net.inputs)
    frames = data.draw(st.integers(1, 6))
    sequence = [{name: data.draw(st.integers(0, 1)) for name in names}
                for _ in range(frames)]
    # Two faults per gate: at least 66, so always several lane groups.
    faults = full_fault_list(net, collapse=False)
    # One simulator over three calls: a subset that leaves a site out,
    # the full list (new sites: a recompile) and a subset again.
    gids = sorted({fault.gid for fault in faults})
    kept = data.draw(st.sets(st.sampled_from(gids), max_size=len(gids) - 1))
    again = data.draw(st.lists(st.sampled_from(faults), unique=True))
    simulator = FaultSimulator(CompiledCircuit(net))
    for batch in ([f for f in faults if f.gid in kept], faults, again):
        assert (simulator.run_sequence(sequence, batch)
                == naive_detected(net, sequence, batch))


def _chunked_draw(net, data):
    """A sequence and the uncollapsed faults in a drawn order, sorted
    by the cycle each is first detected at (undetected last).  Every
    line of ``net`` becomes an output too, so that most faults are
    detected, and successive 63-fault chunks finish at successive
    cycles."""
    for gate in list(net.gates):
        net.set_output(f"w{gate.gid}", gate.gid)
    names = sorted(net.inputs)
    frames = data.draw(st.integers(2, 6))
    sequence = [{name: data.draw(st.integers(0, 1)) for name in names}
                for _ in range(frames)]
    faults = data.draw(st.permutations(full_fault_list(net,
                                                       collapse=False)))
    assert len(faults) > 2 * 63   # at least three chunks
    first = first_detections(net, sequence, faults)
    faults.sort(key=lambda fault: first.get(fault, frames))
    return sequence, faults, first


@settings(max_examples=30, deadline=None)
@given(netlists(min_gates=64, max_gates=80), st.data())
def test_wide_groups_count_the_effort_of_63_lane_groups(net, data):
    sequence, faults, _ = _chunked_draw(net, data)
    wide_budget, reference_budget = Budget(), Budget()
    wide = FaultSimulator(CompiledCircuit(net), budget=wide_budget)
    reference = GroupOf63Simulator(CompiledCircuit(net),
                                   budget=reference_budget)
    # Two calls, as the random phase makes them: the second on the
    # faults the first left, under the sequence reversed.
    for vectors in (sequence, sequence[::-1]):
        detected = wide.run_sequence(vectors, faults)
        assert detected == reference.run_sequence(vectors, faults)
        faults = [fault for fault in faults if fault not in detected]
    assert wide.stats == reference.stats
    assert wide_budget.steps == reference_budget.steps
    assert wide_budget.reason is None


@settings(max_examples=30, deadline=None)
@given(netlists(min_gates=64, max_gates=80), st.data())
def test_wide_group_stopped_by_its_budget_detects_a_subset(net, data):
    sequence, faults, first = _chunked_draw(net, data)
    unlimited = Budget()
    FaultSimulator(CompiledCircuit(net), budget=unlimited).run_sequence(
        sequence, faults)
    budget = Budget(max_steps=data.draw(st.integers(0, unlimited.steps - 1)))
    simulator = FaultSimulator(CompiledCircuit(net), budget=budget)
    assert simulator.run_sequence(sequence, faults) <= first.keys()
    assert budget.exhausted()


@pytest.mark.parametrize("op", sorted(op for op in _GATE if op != OP_PI))
def test_evaluators_equal_the_reference_chain(op):
    # Fold every tuple of packed values as the engine does; the good
    # half must be the reference on the good halves, the faulty half
    # the reference on the faulty halves.  The expanded benchmark
    # netlists have gates of up to 5 inputs.
    table, start, post = _GATE[op]
    arities = ((0,) if op in (OP_CONST0, OP_CONST1)
               else (1,) if op in (OP_BUF, OP_NOT) else range(1, 6))
    for arity in arities:
        for values in itertools.product(range(9), repeat=arity):
            acc = start
            for v in values:
                acc = table[acc + v]
            good = reference_eval3(op, [v // 3 for v in values])
            faulty = reference_eval3(op, [v % 3 for v in values])
            assert divmod(post[acc], 3) == (good, faulty), (op, values)


def test_packed_line_tests_equal_their_definitions():
    # A PI is never evaluated; its row yields the unassigned (X, X).
    _, start, post = _GATE[OP_PI]
    assert divmod(post[start], 3) == (X, X)
    for v in range(9):
        g, f = divmod(v, 3)
        binary = X not in (g, f)
        assert _IS_D[v] == (binary and g != f), v
        assert _BLOCKED[v] == (binary and g == f), v
        assert _HAS_X[v] == (not binary), v
        assert (v >= _X_GOOD) == (g == X), v
        for stuck in (ZERO, ONE):
            assert divmod(_PIN[stuck][v], 3) == (g, stuck), (v, stuck)


@settings(max_examples=60, deadline=None)
@given(netlists())
def test_decisions_match_the_reference_engine(net):
    faults = full_fault_list(net)
    for frames in range(1, MAX_FRAMES + 1):
        model = unroll(net, frames)
        engine, reference = PodemEngine(model), ReferencePodem(model)
        for fault in faults:
            assert engine.generate(fault) == reference.generate(fault)


@pytest.fixture(scope="module")
def ex_netlists():
    """The 4-bit Ex netlist of every flow, with its PODEM frame ladder."""
    nets = {}
    for flow in FLOW_ORDER:
        design = synthesize_flow_result("ex", flow, 4).design
        rtl = generate_rtl(design, 4)
        table = build_control_table(design, rtl)
        max_frames = 2 * table.phase_count + 1
        ladder = sorted({max(2, max_frames // 4), max(2, max_frames // 2),
                         max_frames})
        nets[flow] = (expand_with_controller(rtl, table), ladder)
    return nets


@pytest.mark.parametrize("flow", FLOW_ORDER)
def test_decisions_match_the_reference_engine_on_ex(ex_netlists, flow):
    net, ladder = ex_netlists[flow]
    sample = full_fault_list(net)[::97]
    for frames in ladder:
        model = unroll(net, frames)
        engine = PodemEngine(model, max_backtracks=64)
        reference = ReferencePodem(model, max_backtracks=64)
        for fault in sample:
            assert engine.generate(fault) == reference.generate(fault)


@pytest.mark.parametrize("flow", FLOW_ORDER)
def test_no_modelling_divergence_on_ex(flow):
    cell = run_cell("ex", flow, ExperimentConfig.quick(4))
    assert cell.atpg.divergent_faults == 0


# ----------------------------------------------------------------------
# Known defect: PODEM is incomplete across frames
# ----------------------------------------------------------------------
def _blocked_frame_net() -> tuple[GateNetlist, int]:
    """Frame 0's g5 carries a D from reset, blocked by g6 = 0; the fault
    needs a later frame's g5 activated instead."""
    net = GateNetlist("blocked_frame")
    i0, i1, i2 = (net.add_input(f"i{n}") for n in range(3))
    q = net.add_dff("q")
    net.connect_dff(q, i0)
    g4 = net.add(GateType.NAND, (i1, i0))
    g5 = net.add(GateType.NAND, (i0, q, i1))
    g6 = net.add(GateType.AND, (i2, q, g4))
    net.set_output("o0", net.add(GateType.NAND, (g6, g5, i0)))
    return net, g5


def test_blocked_frame_fault_is_detectable():
    net, g5 = _blocked_frame_net()
    sequence = [{"i0": 1, "i1": 0, "i2": 0}, {"i0": 1, "i1": 0, "i2": 1}]
    fault = Fault(g5, 0)
    simulator = FaultSimulator(CompiledCircuit(net))
    assert simulator.run_sequence(sequence, [fault]) == {fault}


@pytest.mark.xfail(strict=True, reason="PODEM treats the fault as "
                   "activated once any frame's site carries a D and does "
                   "not activate a later frame when that D is blocked")
def test_podem_activates_a_later_frame():
    net, g5 = _blocked_frame_net()
    for frames in (2, 3):
        result = PodemEngine(unroll(net, frames)).generate(Fault(g5, 0))
        assert result.success, (frames, result)

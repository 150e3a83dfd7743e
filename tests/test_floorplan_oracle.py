"""The floorplanner against the reference algorithm it was optimised from.

``reference_floorplan`` below is the original constructive placement,
kept verbatim: ``Slot`` objects for every spiral slot, the attraction of
every unplaced node recomputed per step, and a scan of every free slot.
The production :func:`repro.cost.floorplan.floorplan` keeps attractions
incrementally, works on integer tuples and stops scanning at the ring
lower bound; it must return equal ``positions`` on:

* random multigraphs with self-arcs, parallel arcs, isolated nodes and
  ties in degree, attraction and slot cost;
* the data paths of random DFGs under random legal bindings;
* every data path the merger loop prices on Ex, Dct and Diffeq at 4 bits,
  and on EWF at 8 bits.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import repro.cost.estimate as estimate
from repro.alloc import Binding, module_unit_class, validate_binding
from repro.cost import CostModel
from repro.cost.floorplan import Floorplan, Slot, _ring_slots, floorplan
from repro.dfg import DFGBuilder, OpKind, unit_class, variable_lifetimes
from repro.dfg.analysis import asap_steps
from repro.etpn import DataPath, default_design
from repro.harness.experiment import synthesize_flow_result

PITCH = 0.1


def reference_spiral(limit: int):
    """Yield grid slots in a deterministic spiral around the origin."""
    yield Slot(0, 0)
    produced = 1
    ring = 1
    while produced < limit:
        x, y = ring, ring
        moves = [(-1, 0), (0, -1), (1, 0), (0, 1)]
        for dx, dy in moves:
            for _ in range(2 * ring):
                if produced >= limit:
                    return
                yield Slot(x, y)
                produced += 1
                x, y = x + dx, y + dy
        ring += 1


def reference_floorplan(datapath, slot_pitch_mm: float) -> Floorplan:
    """Place all data-path nodes with the constructive heuristic."""
    nodes = sorted(datapath.nodes)
    connectivity: dict[str, dict[str, int]] = {n: {} for n in nodes}
    for arc in datapath.arcs:
        if arc.src == arc.dst:
            continue
        connectivity[arc.src][arc.dst] = connectivity[arc.src].get(arc.dst, 0) + 1
        connectivity[arc.dst][arc.src] = connectivity[arc.dst].get(arc.src, 0) + 1

    free_slots = list(reference_spiral(4 * len(nodes) + 16))
    positions: dict[str, Slot] = {}

    def degree(node: str) -> int:
        return sum(connectivity[node].values())

    unplaced = set(nodes)
    seed = max(nodes, key=lambda n: (degree(n), n))
    positions[seed] = free_slots.pop(0)
    unplaced.remove(seed)

    while unplaced:
        def attraction(node: str) -> int:
            return sum(w for other, w in connectivity[node].items()
                       if other in positions)
        candidate = max(sorted(unplaced), key=attraction)
        best_slot = None
        best_cost = None
        for index, slot in enumerate(free_slots):
            cost = sum(w * slot.distance(positions[other])
                       for other, w in connectivity[candidate].items()
                       if other in positions)
            if best_cost is None or cost < best_cost:
                best_cost = cost
                best_slot = index
        positions[candidate] = free_slots.pop(best_slot)
        unplaced.remove(candidate)

    return Floorplan(positions, slot_pitch_mm)


@dataclass(frozen=True)
class Arc:
    src: str
    dst: str


class Graph:
    """The two attributes of a data path the floorplanner reads."""

    def __init__(self, nodes, arcs) -> None:
        self.nodes = dict.fromkeys(nodes)
        self.arcs = [Arc(a, b) for a, b in arcs]


def assert_same_placement(datapath) -> None:
    expected = reference_floorplan(datapath, PITCH).positions
    actual = floorplan(datapath, PITCH).positions
    assert actual == expected
    assert all(type(slot) is Slot for slot in actual.values())


def bound_cuts_scan(datapath) -> bool:
    """Replay the reference placement: does some step's scan stop early?

    A step's scan stops at the first free slot whose ring satisfies
    ``W·(ring - R) >= best``; it is cut when such a slot exists.
    """
    plan = reference_floorplan(datapath, PITCH).positions
    order = list(plan)
    free = list(reference_spiral(4 * len(order) + 16))
    free.remove(plan[order[0]])
    ring = lambda s: max(abs(s.x), abs(s.y))  # noqa: E731
    weights: dict[tuple[str, str], int] = {}
    for arc in datapath.arcs:
        if arc.src != arc.dst:
            for key in ((arc.src, arc.dst), (arc.dst, arc.src)):
                weights[key] = weights.get(key, 0) + 1
    cut = False
    for index, node in enumerate(order[1:], start=1):
        anchors = [(plan[o], weights[node, o]) for o in order[:index]
                   if (node, o) in weights]
        total = sum(w for _, w in anchors)
        outer = max((ring(s) for s, _ in anchors), default=0)
        best = sum(w * plan[node].distance(s) for s, w in anchors)
        cut = cut or total > 0 and any(
            total * (ring(s) - outer) >= best
            for s in free[free.index(plan[node]) + 1:])
        free.remove(plan[node])
    return cut


def test_spiral_matches_reference():
    for limit in range(1, 120):
        assert ([Slot(x, y) for x, y, _ in _ring_slots(limit)]
                == list(reference_spiral(limit)))


def test_rings_never_decrease():
    slots = list(_ring_slots(500))
    assert all(ring == max(abs(x), abs(y)) for x, y, ring in slots)
    assert all(a[2] <= b[2] for a, b in zip(slots, slots[1:]))


def test_bound_cuts_the_scan():
    # A hub with a fan of leaves: every leaf's best slot lies on ring 1,
    # and the scan stops on ring 1 or 2 of a spiral several rings deep.
    graph = Graph([f"n{i}" for i in range(12)],
                  [("n0", f"n{i}") for i in range(1, 12)]
                  + [("n3", "n4"), ("n4", "n5"), ("n9", "n9")])
    assert bound_cuts_scan(graph)
    assert_same_placement(graph)


def test_bound_uses_the_outermost_neighbour_ring():
    # Shrunk from a random graph on which a bound taking R from a nearer
    # neighbour's ring cuts the scan before the best slot.
    arcs = [("n02", "n24"), ("n18", "n02"), ("n05", "n24"), ("n12", "n18"),
            ("n10", "n02"), ("n08", "n17"), ("n24", "n25"), ("n20", "n17"),
            ("n12", "n08"), ("n20", "n24"), ("n17", "n25"), ("n20", "n03"),
            ("n20", "n10"), ("n05", "n25"), ("n10", "n17"), ("n10", "n03"),
            ("n05", "n12"), ("n03", "n08"), ("n17", "n12"), ("n00", "n18"),
            ("n17", "n18"), ("n06", "n17")]
    assert_same_placement(Graph({n for arc in arcs for n in arc}, arcs))


def test_candidate_without_placed_neighbour():
    # Two components and an isolated node: once the first component is
    # placed, the next candidate has W = 0 and takes the first free slot.
    graph = Graph(["a", "b", "c", "d", "e", "lone"],
                  [("a", "b"), ("b", "a"), ("c", "d"), ("d", "e")])
    plan = floorplan(graph, PITCH).positions
    assert plan["lone"] != Slot(0, 0)
    assert_same_placement(graph)


def test_single_node():
    assert_same_placement(Graph(["only"], [("only", "only")]))


@st.composite
def multigraphs(draw):
    """Small multigraphs over few names, so degrees and attractions tie."""
    size = draw(st.integers(1, 24))
    nodes = draw(st.lists(st.sampled_from("abcdefghijklmnopqrstuvwxyz"),
                          min_size=size, max_size=size, unique=True))
    arcs = draw(st.lists(st.tuples(st.sampled_from(nodes),
                                   st.sampled_from(nodes)), max_size=80))
    return Graph(nodes, arcs)


@settings(max_examples=300, deadline=None)
@given(multigraphs())
def test_random_multigraphs(graph):
    assert_same_placement(graph)


_KINDS = [OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.AND, OpKind.LT]


@st.composite
def bound_datapaths(draw):
    """A random DFG under a random binding that is legal for ASAP."""
    builder = DFGBuilder("fp")
    inputs = [f"i{k}" for k in range(draw(st.integers(1, 4)))]
    builder.inputs(*inputs)
    available = list(inputs)
    for index in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(_KINDS))
        lhs = draw(st.sampled_from(available))
        rhs = draw(st.one_of(st.sampled_from(available),
                             st.integers(0, 3)))
        target = f"c{index}" if kind is OpKind.LT else f"v{index}"
        builder.op(f"N{index}", kind, target, lhs, rhs)
        if kind is not OpKind.LT:
            available.append(target)
    dfg = builder.build()
    steps = asap_steps(dfg)
    lifetimes = variable_lifetimes(dfg, steps)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    binding = Binding()
    modules: dict[str, list[str]] = {}
    for op_id in rng.sample(dfg.op_order, len(dfg.op_order)):
        cls = unit_class(dfg.operation(op_id).kind)
        fits = [m for m, ops in modules.items()
                if unit_class(dfg.operation(ops[0]).kind) == cls
                and all(steps[o] != steps[op_id] for o in ops)]
        module = rng.choice(fits + [f"M{len(modules)}"])
        modules.setdefault(module, []).append(op_id)
        binding.module_of[op_id] = module
    registers: dict[str, list[str]] = {}
    for var in rng.sample(sorted(lifetimes), len(lifetimes)):
        fits = [r for r, held in registers.items()
                if not any(lifetimes[v].overlaps(lifetimes[var])
                           for v in held)]
        register = rng.choice(fits + [f"R{len(registers)}"])
        registers.setdefault(register, []).append(var)
        binding.register_of[var] = register
    for name, var in dfg.variables.items():
        if var.needs_register() and name not in binding.register_of:
            binding.register_of[name] = f"R_{name}"
    validate_binding(dfg, steps, binding)
    for module in modules:
        module_unit_class(dfg, binding, module)
    return DataPath(dfg, binding)


@settings(max_examples=100, deadline=None)
@given(bound_datapaths())
def test_random_bound_datapaths(datapath):
    assert_same_placement(datapath)


def test_placement_is_kept_and_shared(chain_dfg, monkeypatch):
    calls = []

    def counting(datapath, slot_pitch_mm):
        calls.append(datapath)
        return floorplan(datapath, slot_pitch_mm)

    monkeypatch.setattr(estimate, "floorplan", counting)
    model = CostModel(bits=8)
    design = default_design(chain_dfg)
    before = model.hardware_total(design.datapath)
    relabelled = design.replaced(label="x")
    assert relabelled.datapath is design.datapath
    assert model.hardware_total(relabelled.datapath) == before
    merged = design.replaced(
        binding=design.binding.merge_registers("R_a", "R_y"))
    model.delta(design, merged)
    model.delta(design, merged)
    assert calls == [design.datapath, merged.datapath]


@pytest.mark.parametrize("name", ["ex", "dct", "diffeq"])
def test_every_priced_datapath(name, monkeypatch):
    placed = []

    def recording(datapath, slot_pitch_mm):
        plan = floorplan(datapath, slot_pitch_mm)
        placed.append((datapath, plan.positions))
        return plan

    monkeypatch.setattr(estimate, "floorplan", recording)
    result = synthesize_flow_result(name, "ours", 4)
    CostModel(bits=4).hardware_total(result.design.datapath)
    assert len(placed) > len(result.history)
    # Each data path is placed once, however often it is priced.
    assert len({id(dp) for dp, _ in placed}) == len(placed)
    for datapath, positions in placed:
        assert positions == reference_floorplan(datapath, PITCH).positions


@pytest.mark.slow
def test_every_priced_datapath_of_an_ewf_run(monkeypatch):
    # EWF's 66-node data paths scan the longest spirals of any benchmark.
    placed = []

    def recording(datapath, slot_pitch_mm):
        plan = floorplan(datapath, slot_pitch_mm)
        placed.append((datapath, plan.positions))
        return plan

    monkeypatch.setattr(estimate, "floorplan", recording)
    result = synthesize_flow_result("ewf", "ours", 8)
    CostModel(bits=8).hardware_total(result.design.datapath)
    assert len(placed) > len(result.history)
    assert len({id(dp) for dp, _ in placed}) == len(placed)
    for datapath, positions in placed:
        assert positions == reference_floorplan(datapath, PITCH).positions

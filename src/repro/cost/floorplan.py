"""Connectivity-driven constructive floorplanning (Peng & Kuchcinski).

Paper §4.2: wiring cost depends on placement, so the hardware estimator
floorplans the data path first "using a simple heuristics based on the
connectivity between the data path vertices".

The heuristic here is the classic constructive one: seed the placement
with the most-connected vertex at the centre of a grid, then repeatedly
place the unplaced vertex with the strongest connectivity to the placed
set onto the free slot minimising its total Manhattan wirelength to its
placed neighbours.  Deterministic (name-based tie-breaks) so that cost
deltas between designs are stable.

The slot scan stops early without changing the choice: free slots come
in nondecreasing Chebyshev ring, and a slot on ring ``r`` is at least
``r - R`` (Manhattan ≥ Chebyshev ≥ the difference of the two rings)
from a placed neighbour on ring ``R``.  With weights ``w``, no slot
from the first ring with ``Σ w·(r - R) ≥ best`` on can beat the best
cost so far.
"""

from __future__ import annotations

from typing import NamedTuple

from ..etpn.datapath import DataPath

#: A spiral slot: ``(x, y, ring)``.
_Spot = tuple[int, int, int]


class Slot(NamedTuple):
    """A grid position; coordinates are in slot units."""

    x: int
    y: int

    def distance(self, other: "Slot") -> int:
        """Manhattan distance in slot units."""
        return abs(self.x - other.x) + abs(self.y - other.y)


class Floorplan:
    """A placement of every data-path node onto grid slots."""

    def __init__(self, positions: dict[str, Slot], slot_pitch_mm: float) -> None:
        self.positions = positions
        self.slot_pitch_mm = slot_pitch_mm

    def wirelength_mm(self, src: str, dst: str) -> float:
        """Len(A): centre-to-centre Manhattan length of a connection."""
        (sx, sy), (dx, dy) = self.positions[src], self.positions[dst]
        # Adjacent slots still need a minimal route of one pitch.
        return max(abs(sx - dx) + abs(sy - dy), 1) * self.slot_pitch_mm


def _ring_slots(limit: int) -> list[_Spot]:
    """The first ``limit`` ``(x, y, ring)`` of a deterministic spiral
    around the origin.

    ``ring`` is the Chebyshev distance from the origin; it never
    decreases along the spiral.  Each ring starts at its top-right
    corner and runs left, down, right, then up.
    """
    slots = [(0, 0, 0)]
    ring = 1
    while len(slots) < limit:
        side = range(2 * ring)
        slots += [(ring - i, ring, ring) for i in side]
        slots += [(-ring, ring - i, ring) for i in side]
        slots += [(i - ring, -ring, ring) for i in side]
        slots += [(ring, i - ring, ring) for i in side]
        ring += 1
    del slots[limit:]
    return slots


def _best_slot(free: list[_Spot], anchors: list[tuple[_Spot, int]]) -> int:
    """Index of the first free slot of least weighted wirelength to the
    placed neighbours ``anchors``, given as ``(slot, weight)``.

    The scan stops at the ring bound (module docstring).  With one
    neighbour of weight ``w`` on ring ``R`` every cost is ``w`` times a
    distance, so the scan compares distances and stops at the first
    ring ``r >= d + R``, ``d`` the best distance so far.
    """
    if not anchors:
        return 0  # every slot costs 0
    if len(anchors) == 1:
        (px, py, outer_ring), _ = anchors[0]
        x, y, _ = free[0]
        best, best_index = abs(x - px) + abs(y - py), 0
        stop = best + outer_ring
        for index, (x, y, ring) in enumerate(free):
            if ring >= stop:
                break
            distance = abs(x - px) + abs(y - py)
            if distance < best:
                best, best_index = distance, index
                stop = best + outer_ring
        return best_index
    best = best_index = -1
    points = [(px, py, weight) for (px, py, _), weight in anchors]
    total_weight = sum(weight for _, weight in anchors)
    # A slot on ring r costs at least W·r - Σ w·R over the neighbours.
    offset = sum(weight * slot[2] for slot, weight in anchors)
    for index, (x, y, ring) in enumerate(free):
        if best >= 0 and total_weight * ring - offset >= best:
            break
        cost = 0
        for px, py, weight in points:
            cost += weight * (abs(x - px) + abs(y - py))
        if best < 0 or cost < best:
            best, best_index = cost, index
    return best_index


def floorplan(datapath: DataPath, slot_pitch_mm: float) -> Floorplan:
    """Place all data-path nodes with the constructive heuristic."""
    nodes = sorted(datapath.nodes)
    neighbours: dict[str, dict[str, int]] = {n: {} for n in nodes}
    for arc in datapath.arcs:
        src, dst = arc.src, arc.dst
        if src != dst:
            fanout, fanin = neighbours[src], neighbours[dst]
            fanout[dst] = fanout.get(dst, 0) + 1
            fanin[src] = fanin.get(src, 0) + 1

    free = _ring_slots(4 * len(nodes) + 16)
    unplaced = list(nodes)
    placed: dict[str, _Spot] = {}
    # Weight of each node's arcs into the placed set.
    attraction = dict.fromkeys(nodes, 0)
    candidate = max(nodes, key=lambda n: (sum(neighbours[n].values()), n))
    slot = free.pop(0)
    while True:
        placed[candidate] = slot
        unplaced.remove(candidate)
        for other, weight in neighbours[candidate].items():
            attraction[other] += weight
        if not unplaced:
            break
        # The first maximum in name order.
        candidate = max(unplaced, key=attraction.__getitem__)
        anchors = [(placed[other], weight)
                   for other, weight in neighbours[candidate].items()
                   if other in placed]
        slot = free.pop(_best_slot(free, anchors))

    return Floorplan({node: Slot(x, y) for node, (x, y, _) in placed.items()},
                     slot_pitch_mm)

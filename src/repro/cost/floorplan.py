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
``r - R`` (Manhattan ≥ Chebyshev) from every placed neighbour, ``R``
being the outermost neighbour's ring.  With ``W`` the candidate's total
placed-neighbour weight, no slot from the first ring with
``W·(r - R) ≥ best`` on can beat the best cost so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from ..etpn.datapath import DataPath


@dataclass(frozen=True)
class Slot:
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
        distance = self.positions[src].distance(self.positions[dst])
        # Adjacent slots still need a minimal route of one pitch.
        return max(distance, 1) * self.slot_pitch_mm

    def bounding_box(self) -> tuple[int, int]:
        """(width, height) of the occupied grid region, in slots."""
        xs = [s.x for s in self.positions.values()]
        ys = [s.y for s in self.positions.values()]
        return (max(xs) - min(xs) + 1, max(ys) - min(ys) + 1)


def _ring_slots(limit: int) -> Iterator[tuple[int, int, int]]:
    """Yield ``(x, y, ring)`` in a deterministic spiral around the origin.

    ``ring`` is the Chebyshev distance from the origin; it never
    decreases along the spiral.
    """
    yield (0, 0, 0)
    produced = 1
    ring = 1
    while produced < limit:
        x, y = ring, ring
        for dx, dy in ((-1, 0), (0, -1), (1, 0), (0, 1)):
            for _ in range(2 * ring):
                if produced >= limit:
                    return
                yield (x, y, ring)
                produced += 1
                x, y = x + dx, y + dy
        ring += 1


def _spiral(limit: int) -> Iterator[Slot]:
    """Yield grid slots in a deterministic spiral around the origin."""
    for x, y, _ in _ring_slots(limit):
        yield Slot(x, y)


def floorplan(datapath: DataPath, slot_pitch_mm: float) -> Floorplan:
    """Place all data-path nodes with the constructive heuristic."""
    nodes = sorted(datapath.nodes)
    neighbours: dict[str, dict[str, int]] = {n: {} for n in nodes}
    for arc in datapath.arcs:
        if arc.src == arc.dst:
            continue
        neighbours[arc.src][arc.dst] = neighbours[arc.src].get(arc.dst, 0) + 1
        neighbours[arc.dst][arc.src] = neighbours[arc.dst].get(arc.src, 0) + 1

    free = list(_ring_slots(4 * len(nodes) + 16))
    unplaced = list(nodes)
    placed: dict[str, tuple[int, int, int]] = {}
    # Weight of each node's arcs into the placed set.
    attraction = dict.fromkeys(nodes, 0)

    def place(node: str, slot: tuple[int, int, int]) -> None:
        placed[node] = slot
        unplaced.remove(node)
        for other, weight in neighbours[node].items():
            attraction[other] += weight

    place(max(nodes, key=lambda n: (sum(neighbours[n].values()), n)),
          free.pop(0))
    while unplaced:
        # The first maximum in name order.
        candidate = max(unplaced, key=attraction.__getitem__)
        anchors = [(placed[other], weight)
                   for other, weight in neighbours[candidate].items()
                   if other in placed]
        total_weight = sum(weight for _, weight in anchors)
        outer_ring = max((slot[2] for slot, _ in anchors), default=0)
        best_index = 0
        best_cost = -1
        for index, (x, y, ring) in enumerate(free):
            # The ring lower bound: no slot from here on costs less.
            if best_cost >= 0 \
                    and total_weight * (ring - outer_ring) >= best_cost:
                break
            cost = 0
            for (px, py, _), weight in anchors:
                cost += weight * (abs(x - px) + abs(y - py))
            if best_cost < 0 or cost < best_cost:
                best_cost = cost
                best_index = index
        place(candidate, free.pop(best_index))

    return Floorplan({node: Slot(x, y) for node, (x, y, _) in placed.items()},
                     slot_pitch_mm)

"""Design-space exploration: the Pareto front over (E, H, testability).

Sweeps Algorithm 1's user parameters and, for every distinct design
produced, records execution time, hardware cost and testability
quality; dominated points are filtered out.  This is the tool a user
runs to pick (k, α, β) for a new behaviour instead of guessing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..cost import CostModel
from ..dfg import DFG
from ..etpn.design import Design, Signature
from ..testability import analyze
from .algorithm import MergerMemo, SynthesisParams, synthesize

#: The default sweep grid: the paper's settings plus the extremes that
#: actually move the result (k and the α/β ratio).
DEFAULT_GRID = [
    (1, 2.0, 1.0), (3, 2.0, 1.0), (6, 2.0, 1.0),
    (3, 10.0, 1.0), (3, 1.0, 10.0), (6, 1.0, 10.0),
]


@dataclass(frozen=True)
class DesignPoint:
    """One explored design with its three objectives."""

    params: tuple[int, float, float]
    execution_time: int
    hardware_mm2: float
    quality: float                       # higher is better
    design: Design = field(compare=False, hash=False, repr=False)

    def dominates(self, other: "DesignPoint") -> bool:
        """Pareto dominance: no worse everywhere, better somewhere."""
        no_worse = (self.execution_time <= other.execution_time
                    and self.hardware_mm2 <= other.hardware_mm2 + 1e-12
                    and self.quality >= other.quality - 1e-12)
        better = (self.execution_time < other.execution_time
                  or self.hardware_mm2 < other.hardware_mm2 - 1e-12
                  or self.quality > other.quality + 1e-12)
        return no_worse and better


def explore(dfg: DFG, cost_model: CostModel | None = None,
            grid: list[tuple[int, float, float]] | None = None, *,
            progress: Callable[[str], None] | None = None
            ) -> list[DesignPoint]:
    """Sweep the grid and return every distinct design point.

    The grid points run in order in this process and share one
    :class:`~repro.synth.algorithm.MergerMemo`, so a design that several
    points reach is ranked once and each of its candidate mergers is
    evaluated once; every point still takes the decisions it takes
    alone.  A design already found at an earlier point is not repeated.
    """
    cost_model = cost_model or CostModel()
    memo = MergerMemo(dfg, cost_model)
    seen: set[Signature] = set()
    points: list[DesignPoint] = []
    for point in grid or DEFAULT_GRID:
        k, alpha, beta = point
        params = SynthesisParams(k=k, alpha=alpha, beta=beta)
        # All positional, so a stand-in taking ``*args`` fits; "ours"
        # and None are synthesize's defaults.
        design = synthesize(dfg, params, cost_model, "ours", None,
                            memo).design
        if design.signature not in seen:
            seen.add(design.signature)
            points.append(DesignPoint(
                params=point,
                execution_time=design.execution_time,
                hardware_mm2=cost_model.hardware_total(design.datapath),
                quality=analyze(design.datapath).design_quality(),
                design=design))
        if progress:
            progress(f"explored (k={k}, a={alpha:g}, b={beta:g})")
    return points


def pareto_front(points: list[DesignPoint]) -> list[DesignPoint]:
    """The non-dominated subset, sorted by execution time."""
    front = [p for p in points
             if not any(q.dominates(p) for q in points)]
    return sorted(front, key=lambda p: (p.execution_time, p.hardware_mm2))


def render_front(points: list[DesignPoint]) -> str:
    """A text table of a point set (front or full sweep)."""
    lines = [f"{'(k, a, b)':<16} {'E':>3} {'H mm2':>8} {'quality':>8} "
             f"{'mods':>4} {'regs':>4}"]
    for point in points:
        k, alpha, beta = point.params
        lines.append(f"({k}, {alpha:g}, {beta:g})".ljust(16)
                     + f" {point.execution_time:>3}"
                     f" {point.hardware_mm2:>8.3f}"
                     f" {point.quality:>8.3f}"
                     f" {point.design.binding.module_count():>4}"
                     f" {point.design.binding.register_count():>4}")
    return "\n".join(lines)

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
from ..etpn.design import Design
from ..testability import analyze
from .algorithm import SynthesisParams, synthesize

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


def _distinct(design: Design, seen: set[tuple]) -> bool:
    """True the first time a design's schedule and binding turn up."""
    signature = (tuple(sorted(design.steps.items())),
                 tuple(sorted(design.binding.module_of.items())),
                 tuple(sorted(design.binding.register_of.items())))
    if signature in seen:
        return False
    seen.add(signature)
    return True


def _explore_point(dfg: DFG, cost_model: CostModel,
                   point: tuple[int, float, float], cache: object | None,
                   seen: set[tuple]) -> DesignPoint | None:
    """Synthesise one grid point; None when its design is already in
    ``seen``, else the design with its three objectives."""
    k, alpha, beta = point
    params = SynthesisParams(k=k, alpha=alpha, beta=beta)
    result = None
    key = None
    if cache is not None:
        from ..harness.cache import synthesis_key
        key = synthesis_key(dfg, "ours", params, cost_model.bits)
        result = cache.get_synthesis(key)  # type: ignore[attr-defined]
    if result is None:
        result = synthesize(dfg, params, cost_model)
        if cache is not None and key is not None:
            cache.put_synthesis(key, result)  # type: ignore[attr-defined]
    design = result.design
    if not _distinct(design, seen):
        return None
    return DesignPoint(
        params=point,
        execution_time=design.execution_time,
        hardware_mm2=cost_model.hardware_total(design.datapath),
        quality=analyze(design.datapath).design_quality(),
        design=design)


def explore(dfg: DFG, cost_model: CostModel | None = None,
            grid: list[tuple[int, float, float]] | None = None,
            cache: object | None = None, *,
            workers: int | None = None,
            progress: Callable[[str], None] | None = None
            ) -> list[DesignPoint]:
    """Sweep the grid and return every distinct design point.

    ``cache`` is an optional :class:`~repro.harness.cache.ResultCache`:
    each grid point's synthesis is keyed on the canonical DFG and the
    full parameter set, so re-running a sweep (or sharing parameters
    with a table run) is served from the cache.  With ``workers > 1``
    each grid point runs in its own worker process; either way the
    points are de-duplicated in grid order, so the result does not
    depend on the worker count.
    """
    from ..errors import ReproError
    from ..runtime.worker import InlineRunner, ProcessRunner, run_tasks

    cost_model = cost_model or CostModel()
    grid = list(grid or DEFAULT_GRID)
    # Inline, the shared ``seen`` spares pricing a repeated design; each
    # worker gets its own copy, so its points are de-duplicated below.
    seen: set[tuple] = set()
    points: list[DesignPoint | None] = [None] * len(grid)
    runner: InlineRunner | ProcessRunner = (
        InlineRunner() if (workers or 1) == 1 else ProcessRunner(workers or 1))
    try:
        for finished in run_tasks(runner, (
                (index, _explore_point, (dfg, cost_model, point, cache, seen),
                 None) for index, point in enumerate(grid))):
            k, alpha, beta = grid[finished.key]
            if finished.exception is not None:
                raise finished.exception  # inline: the original, unwrapped
            if finished.error:
                raise ReproError(f"explore point ({k}, {alpha:g}, {beta:g}) "
                                 f"failed: {finished.error}")
            points[finished.key] = finished.value
            if progress:
                progress(f"explored (k={k}, a={alpha:g}, b={beta:g})")
    finally:
        runner.close()
    distinct: set[tuple] = set()
    return [point for point in points
            if point is not None and _distinct(point.design, distinct)]


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

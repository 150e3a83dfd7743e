"""Per-layer spans recorded from outside the program.

The program has no tracing of its own, so the traced run wraps the
functions each layer is entered through: a module attribute (a name a
caller looks up at call time) or a class method.  Wrappers keep a span
stack, so every layer reports *self* time: its own wall time minus the
time of the wrapped layers it called.  Counts come from the call sites
too (how often a layer ran) plus a few work counters read off the
results it returns.

Wrapping is undone by :meth:`Tracer.uninstall`.  The untraced run wraps
only :data:`PROBED`, on the host-speed clock of ``run.py``.
"""

from __future__ import annotations

import importlib
from collections import Counter, defaultdict
from time import perf_counter
from typing import Any, Callable, Optional

Count = Optional[Callable[[Counter, Any], None]]


def _count_podem(counts: Counter, result: Any) -> None:
    counts["podem_backtracks"] += result.stats.backtracks
    counts["podem_implications"] += result.stats.implications


#: (module, class or None, attribute, layer, counter) per entry point.
#: ``synth`` is Algorithm 1 / the baseline flows minus the floorplans
#: they price candidates with; ``atpg_setup`` is ATPG minus its phases
#: (fault list, pruning, simulator codegen); ``cell`` is what a table
#: cell spends outside every other layer (final area and depth pricing).
LAYERS: tuple[tuple[str, Optional[str], str, str, Count], ...] = (
    ("repro.harness.experiment", None, "run_cell", "cell", None),
    ("repro.harness.experiment", None, "run_flow", "synth", None),
    ("repro.synth.explore", None, "synthesize", "synth", None),
    ("repro.cost.estimate", None, "floorplan", "floorplan", None),
    ("repro.harness.experiment", None, "generate_rtl", "rtl", None),
    ("repro.harness.experiment", None, "build_control_table", "rtl", None),
    ("repro.harness.experiment", None, "expand_with_controller", "gates",
     None),
    ("repro.harness.experiment", None, "run_atpg", "atpg_setup", None),
    ("repro.atpg.engine", None, "random_phase", "random_tpg", None),
    ("repro.atpg.engine", None, "unroll", "unroll", None),
    ("repro.atpg.podem", "PodemEngine", "generate", "podem", _count_podem),
    ("repro.atpg.fault_sim", "FaultSimulator", "run_sequence", "fault_sim",
     None),
    ("repro.harness.experiment", None, "analyze", "testability", None),
    ("repro.synth.explore", None, "analyze", "testability", None),
    ("repro.runtime.checkpoint", "Journal", "append", "journal", None),
    ("repro.runtime.checkpoint", "Journal", "completed_cells", "journal",
     None),
)

#: What the untraced run wraps: each table cell and each sweep point,
#: so that its clock probes the host's speed around every one of them.
PROBED = LAYERS[:1] + LAYERS[2:3]


class Tracer:
    """Self time and call counts per layer, accumulated until reset."""

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self._stack: list[float] = []
        self._saved: list[tuple[Any, str, Any]] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()

    def _wrap(self, layer: str, fn: Callable, count: Count) -> Callable:
        def traced(*args: Any, **kwargs: Any) -> Any:
            self._stack.append(0.0)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self.self_s[layer] += elapsed - self._stack.pop()
                if self._stack:
                    self._stack[-1] += elapsed
                self.counts[layer + "_calls"] += 1
            if count is not None:
                count(self.counts, result)
            return result
        return traced

    def install(self, layers=LAYERS) -> None:
        for module, cls, attr, layer, count in layers:
            owner = importlib.import_module(module)
            if cls is not None:
                owner = getattr(owner, cls)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(layer, original, count))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

"""The ETPN design point: DFG + schedule + binding.

A :class:`Design` bundles the three facts that fully determine an
RT-level implementation and lazily derives the expensive views: the
structural data path and variable lifetimes.  The control part is the
schedule's chain of control steps, with the DFG's loop condition (if
any) guarding the back edge; the RTL control table realises it, so
there is no separate control model and the execution time is the step
count (DESIGN.md §8).  Designs are immutable; transformations produce
new ones via :meth:`Design.replaced`.
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING

from ..alloc.binding import Binding, validate_binding
from ..dfg import DFG
from ..dfg.lifetime import Lifetime, variable_lifetimes
from ..sched.constraints import check_precedence
from ..sched.resched import current_module_orders, lifetime_orders
from ..sched.schedule import schedule_length
from .datapath import DataPath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cost.library import ModuleLibrary


#: A design point's schedule and binding as one hashable value.
Signature = tuple[tuple[tuple[str, int], ...], tuple[tuple[str, str], ...],
                  tuple[tuple[str, str], ...]]

#: The cached views of a :class:`Design` that depend only on its binding,
#: and those that depend only on its steps (besides the shared DFG).
_BINDING_VIEWS = ("datapath",)
_STEPS_VIEWS = ("lifetimes",)


class Design:
    """An ETPN design point produced by a synthesis flow."""

    def __init__(self, dfg: DFG, steps: dict[str, int], binding: Binding,
                 label: str = "", *,
                 area: tuple[int, ModuleLibrary, float] | None = None) -> None:
        self.dfg = dfg
        self.steps = dict(steps)
        self.binding = binding
        #: Which flow produced the design ("ours", "camad", ...).
        self.label = label
        #: A known pricing of the data path, given to it when it is
        #: built (see :attr:`DataPath.area`).
        self._area = area

    # ------------------------------------------------------------------
    @property
    def num_steps(self) -> int:
        """Number of control steps of the schedule."""
        return schedule_length(self.steps)

    @cached_property
    def signature(self) -> Signature:
        """The steps, ``module_of`` and ``register_of``, each sorted.

        Two designs of one DFG with equal signatures are the same design
        point, whatever their labels.
        """
        return (tuple(sorted(self.steps.items())),
                tuple(sorted(self.binding.module_of.items())),
                tuple(sorted(self.binding.register_of.items())))

    @cached_property
    def datapath(self) -> DataPath:
        """The structural data path (built on first access)."""
        datapath = DataPath(self.dfg, self.binding)
        datapath.area = self._area
        return datapath

    @cached_property
    def lifetimes(self) -> dict[str, Lifetime]:
        """Variable lifetimes under this design's schedule."""
        return variable_lifetimes(self.dfg, self.steps)

    @cached_property
    def module_orders(self) -> dict[str, list[str]]:
        """Execution order of each shared module (do not mutate)."""
        return current_module_orders(self.dfg, self.binding, self.steps)

    @cached_property
    def register_orders(self) -> dict[str, list[str]]:
        """Lifetime order of each shared register (do not mutate)."""
        return lifetime_orders(self.binding, self.lifetimes)

    @property
    def execution_time(self) -> int:
        """E: the critical path of the control part (paper §4.2).

        The control part is a chain of :attr:`num_steps` control steps,
        so E is the step count (DESIGN.md §8).
        """
        return self.num_steps

    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check schedule precedence and binding legality together."""
        check_precedence(self.dfg, self.steps)
        validate_binding(self.dfg, self.steps, self.binding)

    def replaced(self, steps: dict[str, int] | None = None,
                 binding: Binding | None = None,
                 label: str | None = None) -> "Design":
        """A new design with some components swapped (others shared).

        The new design also shares the views already derived from what
        it keeps: the data path when the binding stays, the lifetimes
        when the steps stay.
        """
        design = Design(self.dfg,
                        self.steps if steps is None else steps,
                        self.binding if binding is None else binding,
                        self.label if label is None else label,
                        area=self._area if binding is None else None)
        kept = (_BINDING_VIEWS if binding is None else ()) \
            + (_STEPS_VIEWS if steps is None else ())
        for view in kept:
            if view in self.__dict__:
                design.__dict__[view] = self.__dict__[view]
        return design

    def summary(self) -> dict[str, int]:
        """Headline structural numbers used throughout the harness."""
        return {
            "steps": self.num_steps,
            "modules": self.binding.module_count(),
            "registers": self.binding.register_count(),
            "muxes": self.datapath.mux_count(),
            "self_loops": len(self.datapath.self_loops()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        s = self.summary()
        return (f"Design({self.dfg.name!r}, label={self.label!r}, "
                f"steps={s['steps']}, modules={s['modules']}, "
                f"regs={s['registers']}, muxes={s['muxes']})")

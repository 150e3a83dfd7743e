"""Module and register bindings (allocation results).

A :class:`Binding` records which functional module executes each
operation and which register stores each variable.  Together with a
schedule it fully determines the RT-level data path.  Bindings are
the objects the paper's *merger* transformation rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Optional

from ..dfg import DFG, unit_class, UnitClass
from ..errors import BindingError

#: A grouping as :meth:`Binding.module_groups` returns it: owner id ->
#: the sorted ids bound to it, read-only.
Groups = Mapping[str, tuple[str, ...]]
#: A kept grouping: a snapshot of the map it was grouped from, and the
#: grouping.
_Kept = Optional[tuple[dict[str, str], Groups]]


def _group(assignment: dict[str, str]) -> Groups:
    """Owner id -> sorted ids, owners in id order."""
    grouping: dict[str, list[str]] = {}
    for item, owner in assignment.items():
        grouping.setdefault(owner, []).append(item)
    return MappingProxyType({owner: tuple(sorted(items))
                             for owner, items in sorted(grouping.items())})


def _kept_groups(kept: _Kept, assignment: dict[str, str]
                 ) -> tuple[dict[str, str], Groups]:
    """``kept`` while it was grouped from a map equal to ``assignment``,
    else a fresh grouping of ``assignment``."""
    if kept is not None and kept[0] == assignment:
        return kept
    return dict(assignment), _group(assignment)


@dataclass
class Binding:
    """An allocation: operations onto modules, variables onto registers.

    Attributes:
        module_of: op_id -> module id.
        register_of: variable name -> register id.

    The groupings by module and by register are kept on the binding
    together with a snapshot of the map each was grouped from; a
    grouping is served only while its map still equals that snapshot,
    so mutating a map can never serve a stale grouping.
    """

    module_of: dict[str, str] = field(default_factory=dict)
    register_of: dict[str, str] = field(default_factory=dict)
    _modules: _Kept = field(default=None, init=False, repr=False,
                            compare=False)
    _registers: _Kept = field(default=None, init=False, repr=False,
                              compare=False)

    # ------------------------------------------------------------------
    def module_groups(self) -> Groups:
        """Module id -> the sorted op_ids bound to it (read-only)."""
        kept = self._modules = _kept_groups(self._modules, self.module_of)
        return kept[1]

    def register_groups(self) -> Groups:
        """Register id -> the sorted variables bound to it (read-only)."""
        kept = self._registers = _kept_groups(self._registers,
                                              self.register_of)
        return kept[1]

    def modules(self) -> dict[str, list[str]]:
        """Map module id to the sorted op_ids bound to it."""
        return {m: list(ops) for m, ops in self.module_groups().items()}

    def registers(self) -> dict[str, list[str]]:
        """Map register id to the sorted variables bound to it."""
        return {r: list(vs) for r, vs in self.register_groups().items()}

    def module_count(self) -> int:
        """Number of distinct functional modules."""
        return len(self.module_groups())

    def register_count(self) -> int:
        """Number of distinct registers."""
        return len(self.register_groups())

    def ops_on(self, module: str) -> list[str]:
        """Sorted op_ids sharing ``module``."""
        return list(self.module_groups().get(module, ()))

    def copy(self) -> "Binding":
        """Deep-enough copy (the maps are replaced, keys are immutable)."""
        result = Binding(dict(self.module_of), dict(self.register_of))
        result._modules, result._registers = self._modules, self._registers
        return result

    # ------------------------------------------------------------------
    def merge_modules(self, keep: str, absorb: str) -> "Binding":
        """Return a new binding with module ``absorb`` folded into ``keep``."""
        if keep == absorb:
            raise BindingError(f"cannot merge module {keep!r} with itself")
        groups = self.module_groups()
        if absorb not in groups:
            raise BindingError(f"no operations bound to module {absorb!r}")
        result = self.copy()
        for op_id in groups[absorb]:
            result.module_of[op_id] = keep
        result._modules = _merged(groups, keep, absorb, result.module_of)
        return result

    def merge_registers(self, keep: str, absorb: str) -> "Binding":
        """Return a new binding with register ``absorb`` folded into ``keep``."""
        if keep == absorb:
            raise BindingError(f"cannot merge register {keep!r} with itself")
        groups = self.register_groups()
        if absorb not in groups:
            raise BindingError(f"no variables bound to register {absorb!r}")
        result = self.copy()
        for var in groups[absorb]:
            result.register_of[var] = keep
        result._registers = _merged(groups, keep, absorb, result.register_of)
        return result


def _merged(groups: Groups, keep: str, absorb: str,
            assignment: dict[str, str]) -> _Kept:
    """The grouping after ``absorb`` folds into ``keep``, kept for
    ``assignment``; None when ``keep`` is new (it would sort elsewhere)."""
    if keep not in groups:
        return None
    merged = dict(groups)
    moved = merged.pop(absorb)
    merged[keep] = tuple(sorted(merged[keep] + moved))
    return dict(assignment), MappingProxyType(merged)


def default_binding(dfg: DFG) -> Binding:
    """The VHDL compiler's default allocation (paper §3).

    Each operation instance gets its own module, each register-needing
    variable its own register — the starting point that mergers compact.
    """
    binding = Binding()
    for op_id in dfg.op_order:
        binding.module_of[op_id] = f"M_{op_id}"
    for name, var in sorted(dfg.variables.items()):
        if var.needs_register():
            binding.register_of[name] = f"R_{name}"
    return binding


def module_unit_class(dfg: DFG, binding: Binding, module: str) -> UnitClass:
    """The unit class of a module (all its ops must agree).

    Raises:
        BindingError: when the module mixes incompatible operation kinds.
    """
    classes = {unit_class(dfg.operation(o).kind) for o in binding.ops_on(module)}
    if len(classes) != 1:
        raise BindingError(f"module {module!r} mixes unit classes {classes}")
    return classes.pop()


def validate_binding(dfg: DFG, steps: dict[str, int], binding: Binding) -> None:
    """Check that a binding is legal for the given schedule.

    Rules (paper §4.1, lint codes ``BND001``-``BND005``): operations
    sharing a module occupy distinct control steps and agree on unit
    class; variables sharing a register have pairwise-disjoint
    lifetimes; every operation and every register-needing variable is
    bound.  The rule implementations live in
    :mod:`repro.lint.rules_binding`; this raise-style wrapper collects
    every violation into one exception.

    Raises:
        BindingError: listing every violated rule (not just the first).
    """
    from ..lint.registry import LintContext, check_layer
    check_layer("binding", LintContext(name=dfg.name, dfg=dfg, steps=steps,
                                       binding=binding), BindingError)

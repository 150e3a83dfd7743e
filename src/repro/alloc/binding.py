"""Module and register bindings (allocation results).

A :class:`Binding` records which functional module executes each
operation and which register stores each variable.  Together with a
schedule it fully determines the RT-level data path.  Bindings are
the objects the paper's *merger* transformation rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dfg import DFG, unit_class, UnitClass
from ..errors import BindingError


@dataclass
class Binding:
    """An allocation: operations onto modules, variables onto registers.

    Attributes:
        module_of: op_id -> module id.
        register_of: variable name -> register id.
    """

    module_of: dict[str, str] = field(default_factory=dict)
    register_of: dict[str, str] = field(default_factory=dict)

    # ------------------------------------------------------------------
    def modules(self) -> dict[str, list[str]]:
        """Map module id to the sorted op_ids bound to it."""
        grouping: dict[str, list[str]] = {}
        for op_id, module in self.module_of.items():
            grouping.setdefault(module, []).append(op_id)
        return {m: sorted(ops) for m, ops in sorted(grouping.items())}

    def registers(self) -> dict[str, list[str]]:
        """Map register id to the sorted variables bound to it."""
        grouping: dict[str, list[str]] = {}
        for var, register in self.register_of.items():
            grouping.setdefault(register, []).append(var)
        return {r: sorted(vs) for r, vs in sorted(grouping.items())}

    def module_count(self) -> int:
        """Number of distinct functional modules."""
        return len(set(self.module_of.values()))

    def register_count(self) -> int:
        """Number of distinct registers."""
        return len(set(self.register_of.values()))

    def ops_on(self, module: str) -> list[str]:
        """Sorted op_ids sharing ``module``."""
        return sorted(o for o, m in self.module_of.items() if m == module)

    def vars_in(self, register: str) -> list[str]:
        """Sorted variables sharing ``register``."""
        return sorted(v for v, r in self.register_of.items() if r == register)

    def copy(self) -> "Binding":
        """Deep-enough copy (the maps are replaced, keys are immutable)."""
        return Binding(dict(self.module_of), dict(self.register_of))

    # ------------------------------------------------------------------
    def merge_modules(self, keep: str, absorb: str) -> "Binding":
        """Return a new binding with module ``absorb`` folded into ``keep``."""
        if keep == absorb:
            raise BindingError(f"cannot merge module {keep!r} with itself")
        result = self.copy()
        found = False
        for op_id, module in result.module_of.items():
            if module == absorb:
                result.module_of[op_id] = keep
                found = True
        if not found:
            raise BindingError(f"no operations bound to module {absorb!r}")
        return result

    def merge_registers(self, keep: str, absorb: str) -> "Binding":
        """Return a new binding with register ``absorb`` folded into ``keep``."""
        if keep == absorb:
            raise BindingError(f"cannot merge register {keep!r} with itself")
        result = self.copy()
        found = False
        for var, register in result.register_of.items():
            if register == absorb:
                result.register_of[var] = keep
                found = True
        if not found:
            raise BindingError(f"no variables bound to register {absorb!r}")
        return result


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

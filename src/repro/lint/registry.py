"""The design-rule registry.

Rules self-register through the :func:`rule` decorator, grouped by the
intermediate representation (*layer*) they inspect.  A rule is a
function ``check(ctx, emit)``: it reads whatever slice of the design it
needs from the :class:`LintContext` and reports findings through
``emit`` — it never raises.  The runner (:mod:`repro.lint.runner`)
builds the context for each layer and collects every emission into a
:class:`~repro.lint.diagnostic.LintReport`.

Codes are stable and unique: ``DFG``/``DFA``/``SCH``/``BND``/``NET``/
``STR``/``GAT``/``TIM``/``TST`` prefixes map to the dfg, dataflow,
schedule, binding, Petri-net, structural-invariant, gate, timing and
testability layers (see DESIGN.md for the full table).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from .diagnostic import Diagnostic, LintReport, Severity

#: The checkable layers, in pipeline order.
LAYERS = ("dfg", "dataflow", "sched", "binding", "petri", "structural",
          "analysis", "gates", "timing", "testability")


@dataclass
class LintContext:
    """Everything a rule may inspect; runners fill the relevant slots.

    Attributes:
        name: name of the design under inspection (used in messages).
        dfg: the data-flow graph (dfg/dataflow/sched/binding/analysis
            layers).
        bits: word width the dataflow layer analyses values at.
        steps: the schedule, op_id -> control step (sched/binding).
        binding: the allocation (binding/analysis layers).
        net: the control Petri net (petri/analysis layers).
        netlist: the gate-level netlist (gates/timing layers).
        datapath: the structural data path (testability layer).
        depth_limit: sequential C/O depth above which TST002 fires.
        period: clock period the timing layer audits against; None
            derives the library default (at which findings mean the
            netlist drifted from the model the allocator priced).
        placement: op_id -> control place, for analysis rules checking a
            hand-built control part; derived from ``steps`` when None.
        cache: scratch space shared by the rules of one run, used to
            memoise expensive whole-design analyses.
    """

    name: str = ""
    dfg: Any = None
    bits: int = 8
    steps: Optional[dict[str, int]] = None
    binding: Any = None
    net: Any = None
    netlist: Any = None
    datapath: Any = None
    depth_limit: float = 8.0
    period: Optional[float] = None
    placement: Optional[dict[str, str]] = None
    cache: dict[str, Any] = field(default_factory=dict)


#: Signature of a rule body: inspect ``ctx``, report through ``emit``.
Emit = Callable[..., None]
CheckFunc = Callable[[LintContext, Emit], None]


@dataclass(frozen=True)
class Rule:
    """One registered design rule."""

    code: str
    layer: str
    severity: Severity
    title: str
    func: CheckFunc = field(repr=False)

    @property
    def doc(self) -> str:
        """First line of the rule body's docstring."""
        text = (self.func.__doc__ or "").strip()
        return text.splitlines()[0] if text else self.title


_RULES: dict[str, Rule] = {}


def rule(code: str, *, layer: str, severity: Severity,
         title: str) -> Callable[[CheckFunc], CheckFunc]:
    """Register a design rule under a stable ``code``.

    Args:
        code: unique identifier, e.g. ``"DFG003"``.
        layer: one of :data:`LAYERS`.
        severity: default severity of the rule's findings.
        title: short human-readable name shown in rule listings.

    Raises:
        ValueError: duplicate code or unknown layer (programming errors
            caught at import time).
    """
    if layer not in LAYERS:
        raise ValueError(f"rule {code}: unknown layer {layer!r}")

    def decorate(func: CheckFunc) -> CheckFunc:
        if code in _RULES:
            raise ValueError(f"duplicate rule code {code!r}")
        _RULES[code] = Rule(code, layer, severity, title, func)
        return func

    return decorate


def all_rules() -> list[Rule]:
    """Every registered rule, sorted by code."""
    _load_builtin_rules()
    return [_RULES[c] for c in sorted(_RULES)]


def rules_for_layer(layer: str) -> list[Rule]:
    """The registered rules of one layer, sorted by code."""
    _load_builtin_rules()
    return [r for r in all_rules() if r.layer == layer]


def get_rule(code: str) -> Rule:
    """Look up a rule by code.

    Raises:
        KeyError: unknown code.
    """
    _load_builtin_rules()
    return _RULES[code]


def run_layer(layer: str, ctx: LintContext) -> LintReport:
    """Run every rule of ``layer`` against ``ctx`` and collect findings."""
    report = LintReport()
    for rule_ in rules_for_layer(layer):
        rule_.func(ctx, _emitter(rule_, report))
    return report


def check_layer(layer: str, ctx: LintContext,
                error: type[Exception]) -> None:
    """Run only ``layer``'s error-severity rules against ``ctx`` (what
    the raise-style validators need; a rule emits only at its declared
    severity, so this finds exactly the errors of :func:`run_layer`).

    Raises:
        Exception: ``error`` listing every finding, ``"; "``-joined.
    """
    report = LintReport()
    for rule_ in rules_for_layer(layer):
        if rule_.severity is Severity.ERROR:
            rule_.func(ctx, _emitter(rule_, report))
    if report.errors():
        raise error("; ".join(d.message for d in report.errors()))


def _emitter(rule_: Rule, report: LintReport) -> Emit:
    """Bind a rule's code/severity/layer into a tidy ``emit`` callable."""

    def emit(message: str, location: str = "", hint: str = "") -> None:
        report.add(Diagnostic(code=rule_.code, severity=rule_.severity,
                              layer=rule_.layer, location=location,
                              message=message, hint=hint))

    return emit


_LOADED = False


def _load_builtin_rules() -> None:
    """Import the built-in rule modules exactly once (self-registration)."""
    global _LOADED
    if _LOADED:
        return
    _LOADED = True
    from . import rules_analysis  # noqa: F401
    from . import rules_binding  # noqa: F401
    from . import rules_dataflow  # noqa: F401
    from . import rules_dfg  # noqa: F401
    from . import rules_gates  # noqa: F401
    from . import rules_petri  # noqa: F401
    from . import rules_sched  # noqa: F401
    from . import rules_structural  # noqa: F401
    from . import rules_testability  # noqa: F401
    from . import rules_timing  # noqa: F401

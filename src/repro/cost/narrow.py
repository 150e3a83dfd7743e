"""Width narrowing: price the data path at its *proved* bit widths.

The cost model declares one global bit width and prices every module,
register and wire at it (paper §4.2).  The dataflow certificate
(:mod:`repro.analysis.dataflow`) often proves tighter per-signal
requirements — an ALU adding two 8-bit inputs needs 9 bits even inside
a 16-bit datapath, and a register holding a comparison result needs 1.
:func:`narrow_design` re-prices the data path with each component at
the width the certificate proves sufficient:

* a **module** gets the widest requirement over its bound operations
  (result *and* operand words — the unit must carry both);
* a **register** gets the widest requirement over its stored
  variables' whole lifetimes;
* an **arc** gets the width of the narrower endpoint (the wire cannot
  carry more information than either end holds), conditions stay 1 bit;
* **muxes** are priced at their sink's narrowed width.

Narrowing is **gated by the equivalence certifier**: the design point
is re-certified first and an invalid certificate refuses the
optimisation (``applied=False``) rather than reporting an area saving
for a design whose behaviour is not proved — the dataflow facts are
only meaningful for the behaviour the design provably computes.  The
reported delta is always against the same library, floorplan and
datapath, so it isolates exactly the width effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Mapping, Optional

from ..analysis.dataflow import DataflowCertificate, analyze_dataflow
from ..etpn.datapath import DataPath, NodeKind
from ..etpn.design import Design
from .estimate import CostModel, HardwareCost


@dataclass
class NarrowingReport:
    """Outcome of one width-narrowing attempt.

    Attributes:
        name: the design's DFG name.
        bits: declared datapath width.
        applied: True when the narrowed pricing is trustworthy (the
            equivalence certifier validated the design point).
        reason: why narrowing was refused (empty when applied).
        equivalence_valid: verdict of the gating certifier.
        module_width: proved width per module id.
        register_width: proved width per register id.
        baseline: hardware cost at the declared width.
        narrowed: hardware cost at the proved widths (equals
            ``baseline`` when not applied).
        certificate: the dataflow certificate the widths came from.
    """

    name: str
    bits: int
    applied: bool
    reason: str
    equivalence_valid: bool
    module_width: dict[str, int]
    register_width: dict[str, int]
    baseline: HardwareCost
    narrowed: HardwareCost
    certificate: Optional[DataflowCertificate] = field(default=None,
                                                       repr=False)

    @property
    def area_delta_mm2(self) -> float:
        """Area saved by narrowing (0.0 when refused)."""
        return self.baseline.total_mm2 - self.narrowed.total_mm2

    @property
    def area_delta_pct(self) -> float:
        """The saving as a percentage of the baseline."""
        total = self.baseline.total_mm2
        return 100.0 * self.area_delta_mm2 / total if total else 0.0

    def summary(self) -> str:
        """One line for CLI output and logs."""
        if not self.applied:
            return f"{self.name}@{self.bits}b: narrowing refused " \
                   f"({self.reason})"
        return (f"{self.name}@{self.bits}b: {self.baseline.total_mm2:.3f} "
                f"-> {self.narrowed.total_mm2:.3f} mm2 "
                f"(-{self.area_delta_pct:.1f}%)")

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable form (certificate elided; see its own
        ``to_dict``)."""
        return {
            "name": self.name,
            "bits": self.bits,
            "applied": self.applied,
            "reason": self.reason,
            "equivalence_valid": self.equivalence_valid,
            "module_width": dict(sorted(self.module_width.items())),
            "register_width": dict(sorted(self.register_width.items())),
            "baseline_mm2": round(self.baseline.total_mm2, 6),
            "narrowed_mm2": round(self.narrowed.total_mm2, 6),
            "area_delta_mm2": round(self.area_delta_mm2, 6),
            "area_delta_pct": round(self.area_delta_pct, 3),
        }


def proved_widths(design: Design, cert: DataflowCertificate
                  ) -> tuple[dict[str, int], dict[str, int]]:
    """Per-module and per-register proved widths, clamped to the
    certificate's declared width."""
    bits = cert.bits
    binding = design.binding
    module_width = {}
    for module, ops in binding.modules().items():
        widths = [cert.op_width(o) for o in ops if o in cert.op_facts]
        module_width[module] = min(bits, max(widths, default=bits))
    register_width = {}
    for register, variables in binding.registers().items():
        widths = [cert.var_width(v) for v in variables]
        register_width[register] = min(bits, max(widths, default=bits))
    return module_width, register_width


def _node_width(datapath: DataPath, node_id: str, cert: DataflowCertificate,
                module_width: Mapping[str, int],
                register_width: Mapping[str, int]) -> int:
    """Proved width of an arbitrary data-path node."""
    node = datapath.nodes[node_id]
    if node.kind == NodeKind.MODULE:
        return module_width.get(node_id, cert.bits)
    if node.kind == NodeKind.REGISTER:
        return register_width.get(node_id, cert.bits)
    if node.kind in (NodeKind.PORT_IN, NodeKind.PORT_OUT):
        return min(cert.bits, max((cert.var_width(v)
                                   for v in node.variables),
                                  default=cert.bits))
    if node.kind == NodeKind.CONST:
        return max(1, int(node.value or 0).bit_length())
    return 1  # COND: a 1-bit controller wire


def narrow_design(design: Design, bits: int,
                  assumptions: Optional[Mapping[str, tuple[int, int]]]
                  = None,
                  cert: Optional[DataflowCertificate] = None
                  ) -> NarrowingReport:
    """Attempt to narrow one design point and report the area effect.

    Args:
        design: a scheduled, bound ETPN design.
        bits: the declared datapath width.
        assumptions: entry intervals per input, passed to the dataflow
            engine (None analyses the full input range).
        cert: a pre-computed dataflow certificate to reuse; must match
            ``bits``.

    The equivalence certifier gates the result: when it cannot certify
    the design point, the report keeps the baseline cost and says why.
    """
    from ..analysis.equivalence import certify

    cost_model = CostModel(bits=bits)
    baseline = cost_model.hardware(design.datapath)
    if cert is None:
        cert = analyze_dataflow(design.dfg, bits, assumptions=assumptions)
    elif cert.bits != bits:
        raise ValueError(f"certificate width {cert.bits} != datapath "
                         f"width {bits}")

    try:
        equivalence = certify(design.dfg, design.steps, design.binding)
        valid = equivalence.valid
        reason = "" if valid else "equivalence certifier found " + \
            f"{len(equivalence.divergences)} divergence(s)"
    except Exception as exc:  # uncertifiable designs refuse, not crash
        valid = False
        reason = f"equivalence certification failed: {exc}"
    if not valid:
        return NarrowingReport(
            name=design.dfg.name, bits=bits, applied=False, reason=reason,
            equivalence_valid=False, module_width={}, register_width={},
            baseline=baseline, narrowed=baseline, certificate=cert)

    module_width, register_width = proved_widths(design, cert)
    datapath = design.datapath
    narrowed = cost_model.hardware(datapath, {
        node_id: _node_width(datapath, node_id, cert, module_width,
                             register_width)
        for node_id in datapath.nodes})
    return NarrowingReport(
        name=design.dfg.name, bits=bits, applied=True, reason="",
        equivalence_valid=True, module_width=module_width,
        register_width=register_width, baseline=baseline,
        narrowed=narrowed, certificate=cert)

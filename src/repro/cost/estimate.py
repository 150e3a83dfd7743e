"""Hardware and execution-time estimation (paper §4.2).

``H = Σ Area(V_i) + Σ Len(A_j) × Wid(A_j)`` over the floorplanned data
path; ``E`` is the critical path of the control part, a chain of
control steps, so it is the schedule's step count
(:attr:`Design.execution_time`).  The
synthesis algorithm compares candidate mergers by ΔE and ΔH, the
increases these two numbers suffer when the merger's scheduling
constraints are discharged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..etpn.datapath import DataPath
from ..etpn.design import Design
from .floorplan import Floorplan, floorplan
from .library import DEFAULT_LIBRARY, ModuleLibrary


def placement(datapath: DataPath, slot_pitch_mm: float) -> Floorplan:
    """The floorplan of ``datapath``, placed once and kept on it.

    Placement does not depend on the pitch, so a data path is placed at
    most once whatever pitch it is priced at.
    """
    plan = datapath.placement
    if plan is None:
        plan = datapath.placement = floorplan(datapath, slot_pitch_mm)
    if plan.slot_pitch_mm != slot_pitch_mm:
        return Floorplan(plan.positions, slot_pitch_mm)
    return plan


@dataclass(frozen=True)
class HardwareCost:
    """Itemised hardware cost of a data path, in mm²."""

    units_mm2: float
    registers_mm2: float
    muxes_mm2: float
    wiring_mm2: float

    @property
    def total_mm2(self) -> float:
        """H: the number reported in the paper's Area columns."""
        return (self.units_mm2 + self.registers_mm2 + self.muxes_mm2
                + self.wiring_mm2)


@dataclass
class CostModel:
    """Bundles the module library and data-path bit width.

    One CostModel instance is shared by a whole synthesis run, so every
    ΔH the algorithm compares uses identical parameters.
    """

    bits: int = 8
    library: ModuleLibrary = field(default_factory=lambda: DEFAULT_LIBRARY)

    # ------------------------------------------------------------------
    def hardware(self, datapath: DataPath) -> HardwareCost:
        """Compute H for a data path on its floorplan.

        Every node is priced at ``bits``: a module or register costs its
        unit area, a mux its per-input area times its input count, and a
        wire its floorplanned length times its width (conditions are
        1 bit); ports and constants are free.
        """
        library = self.library
        plan = placement(datapath, library.slot_pitch_mm)
        bits = self.bits
        units = sum(library.unit_area(datapath.module_class(m.node_id), bits)
                    for m in datapath.modules())
        # Summed register by register, not multiplied: ΔH ties between
        # candidates are decided on these exact floats.
        registers = sum(library.register_area(bits)
                        for _ in datapath.registers())
        muxes = 0.0
        for node_id in datapath.nodes:
            for sources in datapath.port_sources(node_id).values():
                muxes += library.mux_area(len(sources), bits)
        wiring = 0.0
        for arc in datapath.arcs:
            wiring += (plan.wirelength_mm(arc.src, arc.dst)
                       * library.wire_width(1 if arc.is_condition else bits))
        return HardwareCost(units, registers, muxes, wiring)

    def hardware_total(self, datapath: DataPath) -> float:
        """``hardware(datapath).total_mm2``, kept on the data path.

        The kept total is reused while ``bits`` and ``library`` are the
        ones it was priced at; at others the data path is priced again
        and keeps the new total.
        """
        kept = datapath.area
        if kept is not None and kept[0] == self.bits \
                and kept[1] is self.library:
            return kept[2]
        total = self.hardware(datapath).total_mm2
        datapath.area = (self.bits, self.library, total)
        return total

    # ------------------------------------------------------------------
    def delta(self, before: Design, after: Design) -> tuple[float, float]:
        """(ΔE, ΔH) of a candidate transformation."""
        delta_e = float(after.execution_time - before.execution_time)
        delta_h = (self.hardware_total(after.datapath)
                   - self.hardware_total(before.datapath))
        return delta_e, delta_h

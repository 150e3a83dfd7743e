"""The module library: area parameters of data-path units.

Paper §4.2: "The cost of data path units which performs logic,
arithmetic, or storage operations is given by the corresponding module
parameters stored in the module library."

Areas are in mm² for a mid-1990s process, calibrated so that complete
benchmark data paths land in the same range as the paper's Tables 2-3
(≈0.5 mm² at 4 bits up to ≈3 mm² at 16 bits).  Absolute calibration is
cosmetic; relative comparisons between designs come entirely from their
structure (component counts, mux fan-ins and floorplanned wirelength).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..dfg.ops import UnitClass


@dataclass(frozen=True)
class ModuleParams:
    """Area model ``quadratic·bits² + linear·bits + fixed``."""

    quadratic: float
    linear: float
    fixed: float

    def area(self, bits: int) -> float:
        """Area in mm² of one instance at the given bit width."""
        return self.quadratic * bits * bits + self.linear * bits + self.fixed


@dataclass(frozen=True)
class ModuleLibrary:
    """Area parameters for every data-path unit kind."""

    units: dict[UnitClass, ModuleParams] = field(default_factory=lambda: {
        UnitClass.MULTIPLIER: ModuleParams(0.00080, 0.0040, 0.002),
        UnitClass.ALU: ModuleParams(0.0, 0.0042, 0.001),
        UnitClass.SHIFTER: ModuleParams(0.0, 0.0030, 0.001),
        UnitClass.WIRE: ModuleParams(0.0, 0.0, 0.0),
    })
    register: ModuleParams = ModuleParams(0.0, 0.0021, 0.0005)
    mux_per_input: ModuleParams = ModuleParams(0.0, 0.0008, 0.0002)
    #: Wire width factor: bit width × this = Wid(A) in mm.
    wire_pitch_mm: float = 0.00055
    #: Edge length, in mm, of one floorplan slot at 1 bit (scales with
    #: the square root of the average unit area).
    slot_pitch_mm: float = 0.11

    def unit_area(self, unit: UnitClass, bits: int) -> float:
        """Area of one functional unit of class ``unit``."""
        return self.units[unit].area(bits)

    def register_area(self, bits: int) -> float:
        """Area of one register."""
        return self.register.area(bits)

    def mux_area(self, inputs: int, bits: int) -> float:
        """Area of one multiplexer with ``inputs`` data inputs."""
        if inputs <= 1:
            return 0.0
        return self.mux_per_input.area(bits) * inputs

    def wire_width(self, bits: int) -> float:
        """Wid(A): the physical width of a ``bits``-wide connection."""
        return self.wire_pitch_mm * bits


#: The library used by all experiments unless a caller overrides it.
DEFAULT_LIBRARY = ModuleLibrary()

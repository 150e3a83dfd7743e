"""Cost estimation: module library, floorplanning and H/E estimators."""

from .estimate import CostModel, HardwareCost
from .floorplan import Floorplan, Slot, floorplan
from .library import DEFAULT_LIBRARY, ModuleLibrary, ModuleParams

__all__ = [
    "DEFAULT_LIBRARY",
    "CostModel",
    "Floorplan",
    "HardwareCost",
    "ModuleLibrary",
    "ModuleParams",
    "Slot",
    "floorplan",
]

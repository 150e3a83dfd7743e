"""Timed Petri net control part of the ETPN design representation."""

from .builders import (FINAL_PLACE, control_net_for_design,
                       control_net_from_schedule, step_place)
from .net import Guard, PetriNet, Place, Transition

__all__ = [
    "FINAL_PLACE",
    "Guard",
    "PetriNet",
    "Place",
    "Transition",
    "control_net_for_design",
    "control_net_from_schedule",
    "step_place",
]

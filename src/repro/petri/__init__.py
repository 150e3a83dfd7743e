"""Timed Petri net control part of the ETPN design representation."""

from .builders import (FINAL_PLACE, control_net_for_design,
                       control_net_from_schedule, step_place)
from .critical_path import CriticalPath, critical_path, execution_time
from .net import Guard, PetriNet, Place, Transition
from .reachability import ReachabilityGraph

__all__ = [
    "FINAL_PLACE",
    "CriticalPath",
    "Guard",
    "PetriNet",
    "Place",
    "ReachabilityGraph",
    "Transition",
    "control_net_for_design",
    "control_net_from_schedule",
    "critical_path",
    "execution_time",
    "step_place",
]

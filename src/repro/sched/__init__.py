"""Scheduling: schedule helpers, legality, schedulers and rescheduling."""

from .asap_alap import frames, minimum_horizon
from .constraints import check_precedence, precedence_violations
from .fds import fds_schedule
from .mobility_path import mobility_path_schedule, peak_usage
from .resched import (ConstraintGraph, build_constraints,
                      current_module_orders, merge_order_candidates,
                      reschedule)
from .schedule import assert_complete, compact, ops_by_step, schedule_length

__all__ = [
    "ConstraintGraph",
    "assert_complete",
    "build_constraints",
    "check_precedence",
    "compact",
    "current_module_orders",
    "fds_schedule",
    "frames",
    "merge_order_candidates",
    "minimum_horizon",
    "mobility_path_schedule",
    "ops_by_step",
    "peak_usage",
    "precedence_violations",
    "reschedule",
    "schedule_length",
]

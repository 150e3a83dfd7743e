"""Scheduling: schedule helpers, legality, schedulers and rescheduling."""

from .asap_alap import asap_schedule, frames, minimum_horizon
from .constraints import check_precedence, module_conflicts, precedence_violations
from .fds import fds_schedule
from .list_sched import list_schedule, peak_usage
from .mobility_path import mobility_path_schedule
from .resched import (ConstraintGraph, build_constraints,
                      current_module_orders, current_register_orders,
                      merge_order_candidates, reschedule)
from .schedule import (assert_complete, compact, ops_by_step, schedule_length,
                       shift_from)

__all__ = [
    "ConstraintGraph",
    "asap_schedule",
    "assert_complete",
    "build_constraints",
    "check_precedence",
    "compact",
    "current_module_orders",
    "current_register_orders",
    "fds_schedule",
    "frames",
    "list_schedule",
    "merge_order_candidates",
    "minimum_horizon",
    "mobility_path_schedule",
    "module_conflicts",
    "ops_by_step",
    "peak_usage",
    "precedence_violations",
    "reschedule",
    "schedule_length",
    "shift_from",
]

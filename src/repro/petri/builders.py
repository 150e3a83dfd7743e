"""Constructing ETPN control parts from schedules.

A schedule of ``n`` control steps becomes a chain of ``n`` control
places (delay 1 each).  A looping behaviour adds a guarded pair of
transitions after the last step: the loop condition re-enters the first
step (the back edge), its complement reaches the final place.

Rescheduling transformations that lengthen a schedule are realised here
simply by rebuilding the chain with more places — the paper's "dummy
control steps".
"""

from __future__ import annotations

from typing import Optional

from ..errors import PetriNetError
from ..sched.schedule import schedule_length
from .net import Guard, PetriNet


def step_place(step: int) -> str:
    """Conventional id of the control place for step ``step``."""
    return f"S{step}"

FINAL_PLACE = "Pfinal"


def control_net_from_schedule(
    name: str,
    num_steps: int,
    loop_condition: Optional[str] = None,
    step_labels: Optional[dict[int, str]] = None,
) -> PetriNet:
    """Build the control Petri net of a scheduled design.

    Args:
        name: net name (usually the design name).
        num_steps: number of control steps in the schedule.
        loop_condition: condition signal guarding the back edge, or None
            for straight-line behaviour.
        step_labels: optional annotation per step (e.g. the operations
            executing there), used by renderers.

    Returns:
        A validated :class:`PetriNet` with initial marking {S0} and final
        place ``Pfinal``.
    """
    if num_steps <= 0:
        raise PetriNetError(f"{name}: schedule must have at least one step")
    labels = step_labels or {}
    net = PetriNet(name)
    for step in range(num_steps):
        net.add_place(step_place(step), delay=1, label=labels.get(step, ""))
    net.add_place(FINAL_PLACE, delay=0, label="done")
    for step in range(num_steps - 1):
        net.add_transition(f"t{step}", [step_place(step)],
                           [step_place(step + 1)])
    last = step_place(num_steps - 1)
    if loop_condition is None:
        net.add_transition(f"t{num_steps - 1}", [last], [FINAL_PLACE])
    else:
        net.add_transition("t_loop", [last], [step_place(0)],
                           guard=Guard(loop_condition))
        net.add_transition("t_exit", [last], [FINAL_PLACE],
                           guard=Guard(loop_condition, negated=True))
    net.set_initial(step_place(0))
    net.set_final(FINAL_PLACE)
    net.validate()
    return net


def control_net_for_design(dfg, steps: dict[str, int]) -> PetriNet:
    """Build the control net for a scheduled DFG.

    Control-step labels list the operations executing in each step, which
    the harness uses when rendering the paper's schedule figures.

    Raises:
        PetriNetError: when ``steps`` is empty (no control step).
    """
    labels: dict[int, str] = {}
    for op_id in sorted(steps, key=lambda o: (steps[o], o)):
        labels.setdefault(steps[op_id], "")
        separator = " " if labels[steps[op_id]] else ""
        labels[steps[op_id]] += f"{separator}{op_id}"
    return control_net_from_schedule(dfg.name, schedule_length(steps),
                                     loop_condition=dfg.loop_condition,
                                     step_labels=labels)

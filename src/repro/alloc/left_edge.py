"""Left-edge register allocation, plain and testability-modified.

The plain left-edge algorithm packs variable lifetimes into the minimum
number of registers.  The *modified* variant (after Lee et al., used by
the paper's Approach 2 baseline) keeps the same packing framework but
steers which variables end up sharing: each register group should
contain a primary-input or primary-output variable whenever possible
(their rule 1), which shortens the sequential depth from controllable
to observable registers (their rule 2).
"""

from __future__ import annotations

from ..dfg import DFG
from ..dfg.lifetime import Lifetime


def left_edge(lifetimes: dict[str, Lifetime]) -> dict[str, str]:
    """Pack lifetimes into registers with the classic left-edge scan.

    Returns:
        variable name -> register id (``R0``, ``R1``, ...), using the
        minimum number of registers for the given lifetimes.
    """
    ordered = sorted(lifetimes.values(), key=lambda lt: (lt.birth, lt.death,
                                                         lt.variable))
    register_ends: list[int] = []
    assignment: dict[str, str] = {}
    for lt in ordered:
        placed = False
        for index, end in enumerate(register_ends):
            if end <= lt.birth:
                register_ends[index] = lt.death
                assignment[lt.variable] = f"R{index}"
                placed = True
                break
        if not placed:
            assignment[lt.variable] = f"R{len(register_ends)}"
            register_ends.append(lt.death)
    return assignment


def _variable_side(dfg: DFG, name: str) -> int:
    """-1 for input-side variables, +1 for output-side, 0 for middle."""
    var = dfg.variable(name)
    if var.is_input:
        return -1
    if var.is_output:
        return 1
    return 0


def testability_left_edge(dfg: DFG, lifetimes: dict[str, Lifetime]
                          ) -> dict[str, str]:
    """Modified left-edge allocation (Lee et al., Approach 2 / ours).

    Performs the same greedy interval packing but, when several existing
    registers can accept a variable, prefers one whose current contents
    lie on the *opposite* side of the data path (input-side variables
    join output-side groups and vice versa).  The resulting groups mix
    primary-input and primary-output variables, giving every register a
    short path to a controllable input or an observable output.
    """
    ordered = sorted(lifetimes.values(), key=lambda lt: (lt.birth, lt.death,
                                                         lt.variable))
    register_ends: list[int] = []
    register_sides: list[int] = []
    assignment: dict[str, str] = {}
    for lt in ordered:
        side = _variable_side(dfg, lt.variable)
        candidates = [i for i, end in enumerate(register_ends)
                      if end <= lt.birth]
        if candidates:
            # Opposite-side groups first (most negative product), then
            # tightest fit to keep packing optimal, then stable order.
            chosen = min(candidates,
                         key=lambda i: (register_sides[i] * side,
                                        lt.birth - register_ends[i], i))
            register_ends[chosen] = lt.death
            register_sides[chosen] += side
            assignment[lt.variable] = f"R{chosen}"
        else:
            assignment[lt.variable] = f"R{len(register_ends)}"
            register_ends.append(lt.death)
            register_sides.append(side)
    return assignment

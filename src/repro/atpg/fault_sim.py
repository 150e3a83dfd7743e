"""Parallel-fault sequential fault simulation.

Lane 0 carries the good machine; lanes 1..n carry a group of up to
4,095 faulty machines, with the lanes sized to the group.  Each fault
is injected only in its own lane via the compiled simulator's per-site
mask hooks, every machine evolves its own register state in its own
lane, and a fault is *detected* the first cycle any primary output
differs from lane 0.  This is the PROOFS-style scheme, compiled to
straight-line Python.

Effort is counted in 63-fault chunks, the faulty lanes of one 64-bit
word: a group of up to 65 chunks counts one group per chunk, and each
cycle counts a simulated cycle, and charges the budget a step, for
every chunk with a lane still undetected.  So ``groups_simulated``,
``cycles_simulated`` and the budget's steps are those of simulating
the chunks one after another, each until its lanes are all detected;
only a run whose budget runs out mid-group stops at another point.

A simulator compiles one cycle function and keeps it: its hooks cover
every fault site it has been asked about, and it recompiles, over the
union of the sites, only when a call brings a new one.  ATPG's first
call carries the whole fault list, so one run compiles once.  A group
fills its own sites' masks and leaves every other site the identity
masks, so what a group detects, the cycles it simulates and the budget
it charges do not depend on which other sites are hooked.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ..gates.simulate import CompiledCircuit, CycleFn
from ..runtime.budget import Budget
from .faults import Fault

#: Faulty machines per chunk: every lane of a 64-bit word but the good
#: one.  Cycles, groups and budget steps are counted per chunk.
FAULT_LANES = 63
#: Faulty machines per simulated group: 65 chunks.
GROUP_FAULTS = 65 * FAULT_LANES


@dataclass
class FaultSimStats:
    """Work counters for the effort metric."""

    cycles_simulated: int = 0
    groups_simulated: int = 0


def lane_masks(group: Sequence[Fault], site_index: Mapping[int, int],
               full: int) -> tuple[list[int], list[int]]:
    """The ``(nmask, fval)`` lists that inject ``group[i]`` in lane
    ``i + 1`` through a cycle function hooked at the sites of
    ``site_index`` (gate id -> hook index), with all lanes ``full``.

    Every lane of a site keeps its computed value except the lanes of
    the faults on it, which are forced to their stuck values; sites
    without a fault of the group get the identity masks.
    """
    nmask = [full] * len(site_index)
    fval = [0] * len(site_index)
    for offset, fault in enumerate(group):
        lane_bit = 1 << (offset + 1)   # lane 0 = good machine
        k = site_index[fault.gid]
        nmask[k] ^= lane_bit           # set until now: one fault a lane
        if fault.stuck:
            fval[k] |= lane_bit
    return nmask, fval


class FaultSimulator:
    """Simulates input sequences against a set of candidate faults."""

    def __init__(self, circuit: CompiledCircuit,
                 budget: Budget | None = None) -> None:
        self.circuit = circuit
        self.stats = FaultSimStats()
        self.budget = budget
        #: Hooked fault sites of the compiled function: gid -> index.
        self._site_index: dict[int, int] = {}
        self._cycle: CycleFn | None = None

    # ------------------------------------------------------------------
    def run_sequence(self, vectors: list[dict[str, int]],
                     faults: list[Fault]) -> set[Fault]:
        """Return the subset of ``faults`` the sequence detects.

        ``vectors`` hold single-bit values (0/1) per input per cycle;
        they are broadcast to all lanes internally.  All machines start
        from the all-zero reset state.
        """
        detected: set[Fault] = set()
        if not faults:
            return detected
        fn = self._cycle_fn(faults)
        for start in range(0, len(faults), GROUP_FAULTS):
            if self.budget is not None and self.budget.exhausted():
                break  # partial detection set; caller sees the budget
            group = faults[start:start + GROUP_FAULTS]
            detected |= self._run_group(fn, vectors, group)
        return detected

    def _cycle_fn(self, faults: list[Fault]) -> CycleFn:
        """The compiled function, recompiled first if a fault of
        ``faults`` sits on a site it does not hook yet."""
        site_index = self._site_index
        if self._cycle is None or any(f.gid not in site_index
                                      for f in faults):
            sites = tuple(sorted(site_index.keys()
                                 | {f.gid for f in faults}))
            self._site_index = {gid: k for k, gid in enumerate(sites)}
            self._cycle = self.circuit.cycle_fn(sites)
        return self._cycle

    def _run_group(self, fn: CycleFn, vectors: list[dict[str, int]],
                   group: list[Fault]) -> set[Fault]:
        full = (1 << (len(group) + 1)) - 1
        nmask, fval = lane_masks(group, self._site_index, full)
        # The lanes of each chunk still running, lane 0 left out.
        chunk = (1 << FAULT_LANES) - 1
        running = [(chunk << (start + 1)) & full
                   for start in range(0, len(group), FAULT_LANES)]
        state = self.circuit.zero_state()
        detected_lanes = 0
        stats = self.stats
        stats.groups_simulated += len(running)
        budget = self.budget
        names = self.circuit.input_names
        for cycle in vectors:
            if budget is not None and not budget.charge(steps=len(running)):
                break
            pi = [(full if cycle.get(name, 0) & 1 else 0) for name in names]
            outs, state = fn(pi, state, nmask, fval, full)
            for value in outs:
                detected_lanes |= value ^ (full if value & 1 else 0)
            stats.cycles_simulated += len(running)
            running = [lanes for lanes in running
                       if (detected_lanes & lanes) != lanes]
            if not running:
                break
        # Lane i is character i of the reversed binary string.
        lanes = f"{detected_lanes:0{len(group) + 1}b}"[::-1]
        return {fault for fault, bit in zip(group, lanes[1:]) if bit == "1"}

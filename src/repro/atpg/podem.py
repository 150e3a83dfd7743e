"""PODEM deterministic test generation over the unrolled model.

Classic PODEM (Goel 1981) adapted to the good/faulty twin-machine
encoding: every line carries a pair of 3-valued signals (good machine,
faulty machine), a D is a line where the two are binary and different,
the fault site's faulty value is pinned to the stuck value in every
frame, and decisions are made only at primary inputs with trail-based
undo.  Effort is counted in implications (gate re-evaluations) and
backtracks — the units the experiment harness reports as test
generation effort.

The engine keeps per-fault work proportional to what the fault
touches: the fault-free state (constants propagated, every input X) is
computed once per engine and each fault re-evaluates only the faulty
machine forward of its sites; the set of D lines is kept current on
every value change, so the D-frontier is read off the D lines' fanouts
instead of a scan of every line.  Each gate's 3-valued function is
bound once per engine from a table of per-op evaluators.  An engine on
a prefix of the model (:meth:`PodemEngine.prefix`) shares both the
evaluators and the fault-free state of the engine it is cut from.
"""

from __future__ import annotations

import copy
import heapq
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..errors import ATPGError
from ..runtime.budget import Budget
from ..runtime.chaos import chaos_point
from .faults import Fault
from .unroll import (OP_AND, OP_BUF, OP_CONST0, OP_CONST1, OP_NAND, OP_NOR,
                     OP_NOT, OP_OR, OP_PI, OP_XNOR, OP_XOR, UnrolledCircuit)

ZERO, ONE, X = 0, 1, 2

#: Controlling value and output inversion per gate op (None = no
#: controlling value, e.g. XOR).
_CONTROL = {
    OP_AND: (ZERO, False), OP_NAND: (ZERO, True),
    OP_OR: (ONE, False), OP_NOR: (ONE, True),
    OP_BUF: (None, False), OP_NOT: (None, True),
    OP_XOR: (None, False), OP_XNOR: (None, True),
}

#: A gate's 3-valued function: (line values, the gate's fanin uids) ->
#: output value.
Evaluator = Callable[[Sequence[int], Sequence[int]], int]


def _const0(values: Sequence[int], fanins: Sequence[int]) -> int:
    return ZERO


def _const1(values: Sequence[int], fanins: Sequence[int]) -> int:
    return ONE


def _buf(values: Sequence[int], fanins: Sequence[int]) -> int:
    return values[fanins[0]]


def _not(values: Sequence[int], fanins: Sequence[int]) -> int:
    v = values[fanins[0]]
    return X if v == X else 1 - v


def _controlled(control: int, inverts: bool) -> Evaluator:
    """AND/NAND/OR/NOR: one controlling input decides the output."""
    decided = control ^ inverts
    undecided = decided ^ 1

    def evaluate(values: Sequence[int], fanins: Sequence[int]) -> int:
        result = undecided
        for f in fanins:
            v = values[f]
            if v == control:
                return decided
            if v == X:
                result = X
        return result
    return evaluate


def _parity(start: int) -> Evaluator:
    """XOR (``start`` 0) and XNOR (``start`` 1)."""
    def evaluate(values: Sequence[int], fanins: Sequence[int]) -> int:
        result = start
        for f in fanins:
            v = values[f]
            if v == X:
                return X
            result ^= v
        return result
    return evaluate


def _unevaluable(values: Sequence[int], fanins: Sequence[int]) -> int:
    raise ATPGError("a primary input has no gate function")


#: The 3-valued evaluator of every gate op.
EVAL3: dict[int, Evaluator] = {
    OP_CONST0: _const0, OP_CONST1: _const1, OP_BUF: _buf, OP_NOT: _not,
    OP_AND: _controlled(ZERO, False), OP_NAND: _controlled(ZERO, True),
    OP_OR: _controlled(ONE, False), OP_NOR: _controlled(ONE, True),
    OP_XOR: _parity(ZERO), OP_XNOR: _parity(ONE),
}


def _fault_free_charge(ops: Sequence[int]) -> int:
    """Implications of the full fault-free pass: one per gate it
    evaluates, i.e. per line that is neither a PI nor a constant."""
    return (len(ops) - ops.count(OP_PI) - ops.count(OP_CONST0)
            - ops.count(OP_CONST1))


@dataclass
class PodemStats:
    """Effort counters of one generation attempt."""

    implications: int = 0
    backtracks: int = 0
    decisions: int = 0

    @property
    def effort(self) -> int:
        """Scalar effort: implications plus heavily-weighted backtracks."""
        return self.implications + 10 * self.backtracks


@dataclass
class PodemResult:
    """Outcome of one PODEM run."""

    success: bool
    #: (frame, input name) -> bit, for assigned PIs only.
    assignment: dict[tuple[int, str], int] = field(default_factory=dict)
    stats: PodemStats = field(default_factory=PodemStats)
    aborted: bool = False
    #: Why the attempt gave up: ``"effort_limit"`` (backtrack/implication
    #: ceiling) or ``"budget_exhausted"`` (shared wall-clock/step budget).
    abort_reason: str = ""


class PodemEngine:
    """Runs PODEM for faults on one unrolled circuit.

    Invariant: after the initial state of a fault and after every
    :meth:`_set` and :meth:`_undo_to`, ``_dlines`` holds exactly the
    lines whose good and faulty values are binary and differ.
    """

    def __init__(self, model: UnrolledCircuit,
                 max_backtracks: int = 64,
                 max_implications: int = 2_000_000,
                 budget: Budget | None = None) -> None:
        self.model = model
        self.max_backtracks = max_backtracks
        self.max_implications = max_implications
        self.budget = budget
        self._evals = [EVAL3.get(op, _unevaluable) for op in model.ops]
        self._pos = model.po_set()
        #: The fault-free state with every PI X, and its implication
        #: charge.
        self._fault_free = self._fault_free_pass()

    def prefix(self, frames: int) -> PodemEngine:
        """This engine's twin on the first ``frames`` frames of its model
        (:meth:`UnrolledCircuit.prefix`), with the same limits and
        budget.

        The twin shares this engine's evaluators, indexed by uid, and
        its fault-free state: no line reads a later frame, so the
        prefix's fault-free values are the first ones of this model's.
        Only the implication charge is recounted, over the prefix.
        """
        twin = copy.copy(self)
        twin.model = model = self.model.prefix(frames)
        twin._pos = model.po_set()
        values, _ = self._fault_free
        twin._fault_free = (values[:model.size],
                            _fault_free_charge(model.ops))
        return twin

    def _fault_free_pass(self) -> tuple[list[int], int]:
        model = self.model
        values = [X] * model.size
        evals = self._evals
        for uid, (op, fanins) in enumerate(zip(model.ops, model.fanins)):
            if op != OP_PI:
                values[uid] = evals[uid](values, fanins)
        return values, _fault_free_charge(model.ops)

    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Attempt to generate a test for ``fault``."""
        model = self.model
        self.sites = set(model.site_uids.get(fault.gid, []))
        if not self.sites:
            raise ATPGError(f"fault {fault} has no site in the model")
        self.stuck = fault.stuck
        self.stats = PodemStats()
        self._trail: list[tuple[int, int, int]] = []
        self._pin_and_init()

        decisions: list[tuple[int, int, bool, int]] = []
        result = PodemResult(False, stats=self.stats)

        budget = self.budget
        while True:
            chaos_point("atpg.podem_step", budget)
            if budget is not None and not budget.charge():
                result.aborted = True
                result.abort_reason = "budget_exhausted"
                return result
            if self.stats.backtracks > self.max_backtracks \
                    or self.stats.implications > self.max_implications:
                result.aborted = True
                result.abort_reason = "effort_limit"
                return result
            if self._detected():
                result.success = True
                result.assignment = {
                    model.pi_names[uid]: self.good[uid]
                    for uid in model.pi_names if self.good[uid] != X}
                return result
            objective = self._objective()
            if objective is not None:
                pi = self._backtrace(*objective)
                if pi is not None:
                    uid, value = pi
                    decisions.append((uid, value, False, len(self._trail)))
                    self.stats.decisions += 1
                    self._assign(uid, value)
                    continue
            # Dead end: flip the most recent untried decision.
            flipped = False
            while decisions:
                uid, value, tried, mark = decisions.pop()
                self._undo_to(mark)
                self.stats.backtracks += 1
                if not tried:
                    decisions.append((uid, 1 - value, True, mark))
                    self._assign(uid, 1 - value)
                    flipped = True
                    break
            if not flipped:
                return result

    # ------------------------------------------------------------------
    # Value maintenance
    # ------------------------------------------------------------------
    def _pin_and_init(self) -> None:
        """Start from the fault-free state, pin the faulty value at
        every site and re-evaluate the faulty machine forward of the
        sites in uid (topological) order."""
        good, charge = self._fault_free
        self.good = list(good)
        self.faulty = faulty = list(good)
        self._dlines: set[int] = set()
        self.stats.implications += charge
        sites, stuck = self.sites, self.stuck
        evals, fanins, fanouts = (self._evals, self.model.fanins,
                                  self.model.fanouts)
        heap = sorted(sites)
        queued = set(sites)
        while heap:
            uid = heapq.heappop(heap)
            new = stuck if uid in sites else evals[uid](faulty, fanins[uid])
            if new == faulty[uid]:
                continue
            faulty[uid] = new
            if good[uid] ^ new == 1:
                self._dlines.add(uid)
            for out in fanouts[uid]:
                if out not in queued:
                    queued.add(out)
                    heapq.heappush(heap, out)

    def _assign(self, uid: int, value: int) -> None:
        """Set a PI and propagate (event-driven, trail-recorded)."""
        sites, stuck = self.sites, self.stuck
        self._set(uid, value, value if uid not in sites else stuck)
        good, faulty = self.good, self.faulty
        evals, fanins, fanouts = (self._evals, self.model.fanins,
                                  self.model.fanouts)
        queue = list(fanouts[uid])
        evaluated = 0
        while queue:
            current = queue.pop()
            evaluate, inputs = evals[current], fanins[current]
            new_g = evaluate(good, inputs)
            new_f = stuck if current in sites else evaluate(faulty, inputs)
            evaluated += 1
            if new_g != good[current] or new_f != faulty[current]:
                self._set(current, new_g, new_f)
                queue.extend(fanouts[current])
        self.stats.implications += evaluated

    def _set(self, uid: int, g: int, f: int) -> None:
        self._trail.append((uid, self.good[uid], self.faulty[uid]))
        self.good[uid] = g
        self.faulty[uid] = f
        # With ZERO, ONE, X = 0, 1, 2, g ^ f == 1 exactly on a D.
        if g ^ f == 1:
            self._dlines.add(uid)
        else:
            self._dlines.discard(uid)

    def _undo_to(self, mark: int) -> None:
        trail, good, faulty = self._trail, self.good, self.faulty
        dlines = self._dlines
        while len(trail) > mark:
            uid, g, f = trail.pop()
            good[uid] = g
            faulty[uid] = f
            if g ^ f == 1:
                dlines.add(uid)
            else:
                dlines.discard(uid)

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------
    def _detected(self) -> bool:
        return not self._dlines.isdisjoint(self._pos)

    def _objective(self) -> tuple[int, int] | None:
        """Next (uid, good-value) objective, or None at a dead end."""
        if self._dlines.isdisjoint(self.sites):
            want = 1 - self.stuck
            for uid in sorted(self.sites):
                if self.good[uid] == X:
                    return (uid, want)
            return None  # every site blocked: activation impossible
        for uid in self._d_frontier():
            if not self._x_path_to_po(uid):
                continue
            control, _ = _CONTROL.get(self.model.ops[uid], (None, False))
            for fin in self.model.fanins[uid]:
                if self.good[fin] == X:
                    desired = ONE if control is None else 1 - control
                    return (fin, desired)
        return None

    def _d_frontier(self) -> list[int]:
        """Gates with a D input whose good or faulty value is still X,
        in ascending uid."""
        good, faulty, fanouts = self.good, self.faulty, self.model.fanouts
        return sorted({out for uid in self._dlines for out in fanouts[uid]
                       if good[out] == X or faulty[out] == X})

    def _x_path_to_po(self, uid: int) -> bool:
        """Is there a path of not-fully-assigned lines to an output?"""
        pos, fanouts = self._pos, self.model.fanouts
        good, faulty = self.good, self.faulty
        stack = [uid]
        seen = {uid}
        while stack:
            current = stack.pop()
            if current in pos:
                return True
            for fanout in fanouts[current]:
                if fanout in seen:
                    continue
                g, f = good[fanout], faulty[fanout]
                blocked = g != X and f != X and g == f
                if not blocked:
                    seen.add(fanout)
                    stack.append(fanout)
        return False

    # ------------------------------------------------------------------
    def _backtrace(self, uid: int, value: int) -> tuple[int, int] | None:
        """Walk an objective back to an unassigned primary input."""
        current, desired = uid, value
        for _ in range(self.model.size + 1):
            op = self.model.ops[current]
            if op == OP_PI:
                return (current, desired)
            control, inverts = _CONTROL.get(op, (None, False))
            if inverts:
                desired = 1 - desired
            x_inputs = [f for f in self.model.fanins[current]
                        if self.good[f] == X]
            if not x_inputs:
                return None
            depth = self.model.depth
            if op in (OP_XOR, OP_XNOR):
                # Fix the shallowest X input; others decide the parity.
                current = min(x_inputs, key=lambda f: depth[f])
                continue
            if control is not None and desired == control:
                # One controlling input suffices: take the easiest
                # (shallowest) justification path.
                current = min(x_inputs, key=lambda f: depth[f])
                desired = control
            else:
                # Every input must be non-controlling: attack the
                # hardest (deepest) one first so failures surface early.
                current = max(x_inputs, key=lambda f: depth[f])
                if control is not None:
                    desired = 1 - control
        return None

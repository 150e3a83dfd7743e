"""PODEM deterministic test generation over the unrolled model.

Classic PODEM (Goel 1981) adapted to the good/faulty twin-machine
encoding: every line carries a pair of 3-valued signals (good machine,
faulty machine), a D is a line where the two are binary and different,
the fault site's faulty value is pinned to the stuck value in every
frame, and decisions are made only at primary inputs with trail-based
undo.  Effort is counted in implications (gate evaluations) and
backtracks — the units the experiment harness reports as test
generation effort.

Each line holds its pair packed in one int, ``3·g + f`` (0–8, with
ZERO, ONE, X = 0, 1, 2), so one gate evaluation computes both
machines.  A gate folds its fanins through the 9×9 table of its op
(AND, OR or XOR applied to both halves at once), stored pre-multiplied
by 9 so that each fanin costs one index, ``acc = table[acc + v]``; a
``post`` table then maps the folded ``9·v`` back to ``v``, unchanged or
inverted, which covers NAND, NOR, XNOR and NOT.  A fault site passes
its value through a 9-entry pin that keeps the good half and sets the
faulty half to the stuck value.  What PODEM asks of a line (is it a D,
is its good half X, is either half X, is it blocked) is a 9-entry
tuple or one comparison.  One implication is still one gate
evaluation, now of both machines at once, so the effort counts are
those of an engine that evaluates the two machines one at a time.
While a fault is targeted, its sites are evaluated through pinned
rows, whose ``post`` table is composed with the pin, so propagation
never asks whether a line is a site.

The engine keeps per-fault work proportional to what the fault
touches: the fault-free state (constants propagated, every input X) is
computed once per engine and each fault re-evaluates only the lines
forward of its sites; the set of D lines is kept current on every
value change, so the D-frontier is read off the D lines' fanouts
instead of a scan of every line.  Each line's ``(table, start, post)``
row is bound by uid once per engine, as a reference to its op's row.
An engine on a prefix of the model (:meth:`PodemEngine.prefix`) shares
both the rows and the fault-free state of the engine it is cut from.
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


def _and3(a: int, b: int) -> int:
    if a == ZERO or b == ZERO:
        return ZERO
    return X if X in (a, b) else ONE


def _or3(a: int, b: int) -> int:
    if a == ONE or b == ONE:
        return ONE
    return X if X in (a, b) else ZERO


def _xor3(a: int, b: int) -> int:
    return X if X in (a, b) else a ^ b


def _not3(a: int) -> int:
    return X if a == X else 1 - a


def _fold_table(op: Callable[[int, int], int]) -> tuple[int, ...]:
    """At ``9·a + b``, 9 × the packed ``op`` of packed values a and b,
    applied to the good halves and to the faulty halves."""
    return tuple(9 * (3 * op(a // 3, b // 3) + op(a % 3, b % 3))
                 for a in range(9) for b in range(9))


#: Fold tables of the multi-input ops.
_AND, _OR, _XOR = _fold_table(_and3), _fold_table(_or3), _fold_table(_xor3)
#: BUF and NOT fold their one fanin through this 9-entry identity,
#: pre-multiplied like the fold tables.
_BUF = tuple(9 * v for v in range(9))
#: Packed NOT, on both halves.
_NOT = tuple(3 * _not3(v // 3) + _not3(v % 3) for v in range(9))
#: ``post`` tables: a folded 9·v back to v, or to NOT v.
_SAME = tuple(a // 9 for a in range(81))
_INVERT = tuple(_NOT[a // 9] for a in range(81))
#: Fold starts: 9 × the packed (ZERO, ZERO), (ONE, ONE) and (X, X).
_ZERO9, _ONE9, _X9 = (9 * (3 * v + v) for v in (ZERO, ONE, X))

#: An op's row: its fold table, start and post table.
_Row = tuple[tuple[int, ...], int, tuple[int, ...]]

#: Each op's row.  AND folds from (ONE, ONE), OR and XOR from (ZERO,
#: ZERO), and constants are a start with no fanins.  A PI is never
#: evaluated (it has no fanins, so it is on no fanout list); its row
#: yields the unassigned (X, X).
_GATE: dict[int, _Row] = {
    OP_CONST0: ((), _ZERO9, _SAME), OP_CONST1: ((), _ONE9, _SAME),
    OP_PI: ((), _X9, _SAME),
    OP_BUF: (_BUF, _ZERO9, _SAME), OP_NOT: (_BUF, _ZERO9, _INVERT),
    OP_AND: (_AND, _ONE9, _SAME), OP_NAND: (_AND, _ONE9, _INVERT),
    OP_OR: (_OR, _ZERO9, _SAME), OP_NOR: (_OR, _ZERO9, _INVERT),
    OP_XOR: (_XOR, _ZERO9, _SAME), OP_XNOR: (_XOR, _ZERO9, _INVERT),
}

#: Per stuck value, a fault site's pin: good half kept, faulty half
#: stuck.
_PIN = tuple(tuple(3 * (v // 3) + stuck for v in range(9))
             for stuck in (ZERO, ONE))

#: Per stuck value and op code, a fault site's row: the op's row with
#: its ``post`` table composed with the pin.
_PINNED = tuple(
    tuple((table, start, tuple(pin[v] for v in post))
          for table, start, post in (_GATE[op] for op in range(len(_GATE))))
    for pin in _PIN)


def _backtrace_entry(op: int) -> tuple[int, tuple[bool, bool]] | None:
    """What the backtrace reads of ``op``: its inversion (0 or 1) and,
    per desired output value, whether to follow the shallowest X fanin
    rather than the deepest; None for a PI, where it ends."""
    if op == OP_PI:
        return None
    control, inverts = _CONTROL.get(op, (None, False))
    if op in (OP_XOR, OP_XNOR):
        shallow = (True, True)
    else:
        shallow = (control == ZERO, control == ONE)
    return int(inverts), shallow


#: :func:`_backtrace_entry` per op code.
_BACKTRACE = tuple(_backtrace_entry(op) for op in range(len(_GATE)))

#: Per packed value: a D (both halves binary and different) ...
_IS_D = tuple(v in (1, 3) for v in range(9))
#: ... either half X ...
_HAS_X = tuple(v not in (0, 1, 3, 4) for v in range(9))
#: ... blocked (both halves binary and equal).
_BLOCKED = tuple(v in (0, 4) for v in range(9))
#: The good half is X exactly from this packed value on.
_X_GOOD = 3 * X


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
    :meth:`_assign` and :meth:`_undo_to`, ``_dlines`` holds exactly the
    lines whose packed value is a D (1 or 3).
    """

    def __init__(self, model: UnrolledCircuit,
                 max_backtracks: int = 64,
                 max_implications: int = 2_000_000,
                 budget: Budget | None = None) -> None:
        self.model = model
        self.max_backtracks = max_backtracks
        self.max_implications = max_implications
        self.budget = budget
        #: Each line's op row, by uid.  The lines of one op share one
        #: tuple: a tuple per line would add a garbage-collector pass to
        #: every large engine built.
        self._rows = [_GATE[op] for op in model.ops]
        self._pos = model.po_set()
        #: The packed fault-free state with every PI X, and its
        #: implication charge.
        self._fault_free = self._fault_free_pass()

    def prefix(self, frames: int) -> PodemEngine:
        """This engine's twin on the first ``frames`` frames of its model
        (:meth:`UnrolledCircuit.prefix`), with the same limits and
        budget.

        The twin shares this engine's rows, indexed by uid, and its
        fault-free state: no line reads a later frame, so the prefix's
        fault-free values are the first ones of this model's.  Only the
        implication charge is recounted, over the prefix.
        """
        twin = copy.copy(self)
        twin.model = model = self.model.prefix(frames)
        twin._pos = model.po_set()
        values, _ = self._fault_free
        twin._fault_free = (values[:model.size],
                            _fault_free_charge(model.ops))
        return twin

    def _fault_free_pass(self) -> tuple[list[int], int]:
        # uid order is topological, so every fanin is already valued.
        vals: list[int] = []
        for inputs, (table, acc, post) in zip(self.model.fanins,
                                              self._rows):
            for f in inputs:
                acc = table[acc + vals[f]]
            vals.append(post[acc])
        return vals, _fault_free_charge(self.model.ops)

    # ------------------------------------------------------------------
    def generate(self, fault: Fault) -> PodemResult:
        """Attempt to generate a test for ``fault``.

        While it runs, the fault's sites carry pinned rows in
        ``_rows``; the originals are restored on every exit, since the
        engine's prefix twins share the list.
        """
        self.sites = set(self.model.site_uids.get(fault.gid, []))
        if not self.sites:
            raise ATPGError(f"fault {fault} has no site in the model")
        self.stuck = fault.stuck
        self._pin = _PIN[fault.stuck]
        rows, ops, pinned = self._rows, self.model.ops, _PINNED[fault.stuck]
        saved = [(uid, rows[uid]) for uid in self.sites]
        for uid in self.sites:
            rows[uid] = pinned[ops[uid]]
        try:
            return self._search()
        finally:
            for uid, row in saved:
                rows[uid] = row

    def _search(self) -> PodemResult:
        model = self.model
        self.stats = PodemStats()
        #: (uid, packed value before the change), oldest first.
        self._trail: list[tuple[int, int]] = []
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
                vals = self.vals
                result.assignment = {
                    model.pi_names[uid]: vals[uid] // 3
                    for uid in model.pi_names if vals[uid] < _X_GOOD}
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
        """Start from the fault-free state, pin the faulty half at every
        site and re-evaluate forward of the sites in uid (topological)
        order.  Only faulty halves change: every good half keeps its
        fault-free value."""
        fault_free, charge = self._fault_free
        self.vals = vals = list(fault_free)
        self._dlines: set[int] = set()
        dlines = self._dlines
        self.stats.implications += charge
        rows, fanins, fanouts = (self._rows, self.model.fanins,
                                 self.model.fanouts)
        heap = sorted(self.sites)
        queued = set(heap)
        while heap:
            uid = heapq.heappop(heap)
            # A site's pinned row keeps the good half it had fault-free.
            table, acc, post = rows[uid]
            for f in fanins[uid]:
                acc = table[acc + vals[f]]
            new = post[acc]
            if new == vals[uid]:
                continue
            vals[uid] = new
            if _IS_D[new]:
                dlines.add(uid)
            for out in fanouts[uid]:
                if out not in queued:
                    queued.add(out)
                    heapq.heappush(heap, out)

    def _assign(self, uid: int, value: int) -> None:
        """Set a PI and propagate (event-driven, trail-recorded): one
        implication per line queued, each popped once and evaluated for
        both machines."""
        vals, trail, dlines, is_d = self.vals, self._trail, self._dlines, _IS_D
        rows, fanins, fanouts = (self._rows, self.model.fanins,
                                 self.model.fanouts)
        new = 4 * value
        if uid in self.sites:
            new = self._pin[new]
        old = vals[uid]
        trail.append((uid, old))
        vals[uid] = new
        if is_d[new]:
            dlines.add(uid)
        elif is_d[old]:
            dlines.discard(uid)
        queue = list(fanouts[uid])
        queued = len(queue)
        while queue:
            current = queue.pop()
            table, acc, post = rows[current]
            for f in fanins[current]:
                acc = table[acc + vals[f]]
            new = post[acc]
            old = vals[current]
            if new != old:
                trail.append((current, old))
                vals[current] = new
                if is_d[new]:
                    dlines.add(current)
                elif is_d[old]:
                    dlines.discard(current)
                outs = fanouts[current]
                queue.extend(outs)
                queued += len(outs)
        self.stats.implications += queued

    def _undo_to(self, mark: int) -> None:
        trail, vals, dlines, is_d = self._trail, self.vals, self._dlines, _IS_D
        for uid, old in reversed(trail[mark:]):
            if is_d[old]:
                dlines.add(uid)
            elif is_d[vals[uid]]:
                dlines.discard(uid)
            vals[uid] = old
        del trail[mark:]

    # ------------------------------------------------------------------
    # Objectives
    # ------------------------------------------------------------------
    def _detected(self) -> bool:
        return not self._dlines.isdisjoint(self._pos)

    def _objective(self) -> tuple[int, int] | None:
        """Next (uid, good-value) objective, or None at a dead end."""
        vals = self.vals
        if self._dlines.isdisjoint(self.sites):
            want = 1 - self.stuck
            for uid in sorted(self.sites):
                if vals[uid] >= _X_GOOD:
                    return (uid, want)
            return None  # every site blocked: activation impossible
        for uid in self._d_frontier():
            if not self._x_path_to_po(uid):
                continue
            control, _ = _CONTROL.get(self.model.ops[uid], (None, False))
            for fin in self.model.fanins[uid]:
                if vals[fin] >= _X_GOOD:
                    desired = ONE if control is None else 1 - control
                    return (fin, desired)
        return None

    def _d_frontier(self) -> list[int]:
        """Gates with a D input whose good or faulty value is still X,
        in ascending uid."""
        vals, fanouts, has_x = self.vals, self.model.fanouts, _HAS_X
        return sorted({out for uid in self._dlines for out in fanouts[uid]
                       if has_x[vals[out]]})

    def _x_path_to_po(self, uid: int) -> bool:
        """Is there a path of not-fully-assigned lines to an output?"""
        pos, fanouts = self._pos, self.model.fanouts
        vals, blocked = self.vals, _BLOCKED
        stack = [uid]
        seen = {uid}
        while stack:
            current = stack.pop()
            if current in pos:
                return True
            for fanout in fanouts[current]:
                if fanout in seen:
                    continue
                if not blocked[vals[fanout]]:
                    seen.add(fanout)
                    stack.append(fanout)
        return False

    # ------------------------------------------------------------------
    def _backtrace(self, uid: int, value: int) -> tuple[int, int] | None:
        """Walk an objective back to an unassigned primary input.

        Each step follows an X fanin (good half X).  Where one input
        can set the output (the desired value is the op's controlling
        value after its inversion, or the op is XOR or XNOR, whose other
        inputs decide the parity) it takes the shallowest, the easiest
        to justify; else every input must be non-controlling, and it
        takes the deepest, so that failures surface early.  Of equals it
        takes the first, as ``min`` and ``max`` do.  The desired value
        flips only at inverting gates.
        """
        model, vals, entries = self.model, self.vals, _BACKTRACE
        ops, fanins, depth = model.ops, model.fanins, model.depth
        size = model.size
        current, desired = uid, value
        for _ in range(size + 1):
            entry = entries[ops[current]]
            if entry is None:
                return (current, desired)
            inverts, shallow = entry
            desired ^= inverts
            best = -1
            if shallow[desired]:
                best_depth = size
                for f in fanins[current]:
                    if vals[f] >= _X_GOOD and depth[f] < best_depth:
                        best, best_depth = f, depth[f]
            else:
                best_depth = -1
                for f in fanins[current]:
                    if vals[f] >= _X_GOOD and depth[f] > best_depth:
                        best, best_depth = f, depth[f]
            if best < 0:
                return None
            current = best
        return None

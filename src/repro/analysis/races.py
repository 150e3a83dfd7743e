"""Control-level race detection: MHP joined against the binding.

The schedule-level binding rules (``BND004``/``BND005``) see only the
linear control-step numbering, which under-approximates the concurrency
a forking or branching Petri-net control part actually permits: two
operations in *different* control steps can still execute at the same
time when their steps belong to concurrently-marked branches.  The
checks here join the op-level MHP relation with the module and register
binding and flag exactly those conflicts:

``RAC001``
    two operations bound to one module may execute concurrently;
``RAC002``
    two operations may concurrently write the same register
    (write-write race: the stored value depends on firing order);
``RAC003``
    one operation may read a register while another concurrently
    overwrites it (read-write race: the read value is undefined);
``RAC004``
    a multiplexed connection point may be asked to steer two different
    sources at the same time (interconnect contention; reported once
    per contended port).

Same-step conflicts stay the business of the ``BND`` rules — the RAC
rules report only pairs placed in *distinct* concurrently-marked
places, so the two families never duplicate each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Optional

from ..alloc.binding import Binding
from ..dfg import DFG
from ..dfg.graph import Const
from ..petri.builders import control_net_for_design, step_place
from ..petri.net import PetriNet
from ..petri.reachability import DEFAULT_MAX_MARKINGS
from ..runtime.budget import Budget
from .mhp import MHPAnalysis


@dataclass(frozen=True)
class RaceFinding:
    """One detected race, ready to be mapped onto a lint diagnostic."""

    code: str
    location: str
    message: str
    hint: str = ""


class ConcurrencyAnalysis:
    """MHP-based race analysis of one scheduled, bound design.

    Args:
        dfg: the data-flow graph.
        steps: the schedule (op_id -> control step).
        binding: the module/register allocation.
        net: the control Petri net; derived from the schedule when None.
        placement: op_id -> place id; derived from the schedule
            (``S<step>``) when None.  Pass both ``net`` and
            ``placement`` to analyse a hand-built control part whose
            concurrency the linear schedule cannot express.
        max_markings: bound on the reachability-graph construction.
        budget: cooperative budget for the MHP enumeration; when it
            drains, the MHP relation degrades to the sound structural
            over-approximation instead of a truncated prefix (see
            :class:`~repro.analysis.mhp.MHPAnalysis`).
        tier: forwarded to :class:`~repro.analysis.mhp.MHPAnalysis` —
            ``"auto"`` / ``"enumerative"`` / ``"structural"``.
    """

    def __init__(self, dfg: DFG, steps: dict[str, int], binding: Binding,
                 net: Optional[PetriNet] = None,
                 placement: Optional[dict[str, str]] = None,
                 max_markings: int = DEFAULT_MAX_MARKINGS,
                 budget: Optional[Budget] = None,
                 tier: str = "auto") -> None:
        self.dfg = dfg
        self.steps = dict(steps)
        self.binding = binding
        self.net = net if net is not None else control_net_for_design(dfg,
                                                                      steps)
        if placement is None:
            placement = {op: step_place(step) for op, step in steps.items()}
        self.placement = placement
        self.mhp = MHPAnalysis(self.net, max_markings,
                               budget=budget, tier=tier)

    @classmethod
    def of_design(cls, design,
                  max_markings: int = DEFAULT_MAX_MARKINGS,
                  budget: Optional[Budget] = None,
                  tier: str = "auto") -> "ConcurrencyAnalysis":
        """Analyse a :class:`repro.etpn.design.Design` point."""
        return cls(design.dfg, design.steps, design.binding,
                   net=design.control_net, max_markings=max_markings,
                   budget=budget, tier=tier)

    # ------------------------------------------------------------------
    def concurrent(self, op_a: str, op_b: str) -> bool:
        """May the two operations execute in *different* co-marked places?

        Same-place (same-step) pairs return False: those conflicts are
        the schedule-level rules' findings, not control-level races.
        """
        if op_a == op_b:
            return False
        pa = self.placement.get(op_a)
        pb = self.placement.get(op_b)
        if pa is None or pb is None or pa == pb:
            return False
        if pa not in self.net.places or pb not in self.net.places:
            return False
        return self.mhp.places_parallel(pa, pb)

    def concurrent_op_pairs(self) -> set[frozenset[str]]:
        """All strictly-concurrent (cross-place) operation pairs."""
        return self.mhp.op_pairs(self.placement, include_same_place=False)

    # ------------------------------------------------------------------
    def races(self) -> list[RaceFinding]:
        """Every detected race, ordered by code then location."""
        findings = (self._module_races() + self._register_races()
                    + self._contention())
        return sorted(findings,
                      key=lambda f: (f.code, f.location, f.message))

    def _describe(self, op_id: str) -> str:
        return f"{op_id} (in {self.placement.get(op_id, '?')})"

    def _module_races(self) -> list[RaceFinding]:
        out = []
        for module, ops in self.binding.modules().items():
            for a, b in combinations(ops, 2):
                if self.concurrent(a, b):
                    out.append(RaceFinding(
                        "RAC001", module,
                        f"module {module!r}: {self._describe(a)} and "
                        f"{self._describe(b)} may execute concurrently",
                        hint="unmerge the module or serialise the "
                             "control branches"))
        return out

    def _writers(self) -> dict[str, list[tuple[str, str]]]:
        """register -> [(op_id, variable written)] in program order."""
        writers: dict[str, list[tuple[str, str]]] = {}
        for op_id in self.dfg.op_order:
            op = self.dfg.operations[op_id]
            if op.dst is None:
                continue
            register = self.binding.register_of.get(op.dst)
            if register is not None:
                writers.setdefault(register, []).append((op_id, op.dst))
        return writers

    def _register_races(self) -> list[RaceFinding]:
        out = []
        writers = self._writers()
        readers: dict[str, list[tuple[str, str]]] = {}
        for op_id in self.dfg.op_order:
            for var in self.dfg.operations[op_id].src_variables():
                register = self.binding.register_of.get(var)
                if register is not None:
                    readers.setdefault(register, []).append((op_id, var))
        for register, writes in sorted(writers.items()):
            for (a, va), (b, vb) in combinations(writes, 2):
                if self.concurrent(a, b):
                    out.append(RaceFinding(
                        "RAC002", register,
                        f"register {register!r}: {self._describe(a)} "
                        f"writes {va!r} and {self._describe(b)} writes "
                        f"{vb!r} concurrently",
                        hint="the stored value depends on firing order"))
            seen: set[tuple[str, str]] = set()
            for (r, vr) in readers.get(register, []):
                for (w, vw) in writes:
                    if r == w or (r, w) in seen:
                        continue
                    if self.concurrent(r, w):
                        seen.add((r, w))
                        out.append(RaceFinding(
                            "RAC003", register,
                            f"register {register!r}: {self._describe(r)} "
                            f"reads {vr!r} while {self._describe(w)} "
                            f"concurrently overwrites it with {vw!r}",
                            hint="the read value is undefined"))
        return out

    def _contention(self) -> list[RaceFinding]:
        """One RAC004 per multiplexed port with a concurrent select conflict."""
        users: dict[tuple[str, int], list[tuple[str, str]]] = {}
        for op_id in self.dfg.op_order:
            op = self.dfg.operations[op_id]
            module = self.binding.module_of.get(op.op_id)
            if module is not None:
                for port, operand in enumerate(op.srcs):
                    if isinstance(operand, Const):
                        source: Optional[str] = f"C_{operand.value}"
                    else:
                        source = self.binding.register_of.get(operand)
                    if source is not None:
                        users.setdefault((module, port), []).append(
                            (source, op_id))
            if op.dst is not None and module is not None:
                register = self.binding.register_of.get(op.dst)
                if register is not None:
                    users.setdefault((register, 0), []).append(
                        (module, op_id))
        out = []
        for (node, port), drive in sorted(users.items()):
            if len({source for source, _ in drive}) < 2:
                continue  # single source: a wire, not a mux
            for (sa, a), (sb, b) in combinations(drive, 2):
                if sa != sb and self.concurrent(a, b):
                    out.append(RaceFinding(
                        "RAC004", f"{node}.in{port}",
                        f"mux at {node!r} input {port}: "
                        f"{self._describe(a)} needs {sa!r} while "
                        f"{self._describe(b)} concurrently needs {sb!r}",
                        hint="one multiplexer cannot steer two sources "
                             "at once"))
                    break  # one finding per contended port is enough
        return out

"""Deterministic static timing analysis over a gate netlist.

The engine times every combinational path between launch points
(primary inputs, constants, DFF Q outputs) and capture points (DFF D
inputs, primary outputs): it propagates arrival times forward with the
:class:`~repro.analysis.timing.delays.DelayTable`, derives required
times and slack from the clock period, and extracts the K worst paths
with named endpoints.

**One forward pass.**  :meth:`GateNetlist.add` makes gid order
topological, so the whole netlist is timed in one pass in that order:
each gate's arrival and logic level follow from its fanins', which the
pass has already set.  Endpoints then read their driver's entry.

**False-path pruning.**  Before arrival propagation, the netlist is
valued in ternary logic (:func:`repro.gates.ternary.propagate`, the
same pass the ATPG fault pruner runs): inputs are X, constants are
0/1, and DFFs launch X unless ``sequential_constants`` seeds them with
the reset-reachable constants of
:func:`repro.atpg.prune.constant_lines`.  A gate whose ternary value
is decided carries no transition for *any* input/state valuation, so
it contributes no arrival and every path through it is false — the
constant-padded words and never-hot control cones the expander emits
drop out of the critical-path search instead of dominating it.

**Degradation.**  The engine is budget-aware (one cooperative
:meth:`~repro.runtime.budget.Budget.charge` per timed gate) and
carries a per-endpoint exception barrier around the registered chaos
seam ``timing.cone_eval``: a starved or injected-faulty endpoint is
tagged and skipped, and the report stays well-formed with
``budget_exhausted``/``degraded`` provenance.
"""

from __future__ import annotations

from typing import Optional

from ...cost.library import DEFAULT_LIBRARY, ModuleLibrary
from ...gates.netlist import (SOURCE_TYPES, GateNetlist, GateType,
                              combinational_cycle, in_topological_order)
from ...gates.ternary import Ternary, propagate
from ...runtime.budget import Budget
from ...runtime.chaos import ChaosCrash, chaos_point
from .delays import (DEFAULT_TABLE, DelayTable, chain_allowance,
                     default_period, library_disagreements)
from .report import EndpointTiming, PathStep, TimingPath, TimingReport


def _propagate_arrivals(netlist: GateNetlist, values: list[Ternary],
                        arrival: list[Optional[float]], level: list[int],
                        table: DelayTable, budget: Optional[Budget]) -> int:
    """Fill ``arrival`` and ``level`` for every gate whose value is X.

    Inputs launch at 0.0 and unseeded DFF Qs at ``clk_q``; a
    combinational gate arrives one gate delay after its latest live
    fanin, one level above its deepest.  An X output needs an X input,
    and every X line has an arrival.  Returns the gid the pass reached:
    the number of gates when it finished, the first untimed gate when
    the budget drained.
    """
    clk_q = table.clk_q
    delays: dict[tuple[GateType, int], float] = {}
    input_, dff = GateType.INPUT, GateType.DFF
    for gate in netlist.gates:
        gid = gate.gid
        if values[gid] is not None:
            continue  # proved constant: every path through it is false
        gtype = gate.gtype
        if gtype is input_:
            arrival[gid] = 0.0
            continue
        if gtype is dff:
            arrival[gid] = clk_q
            continue
        if budget is not None and not budget.charge():
            return gid
        latest = -1.0
        deepest = 0
        fanins = gate.fanins
        for fin in fanins:
            fin_arrival = arrival[fin]
            if fin_arrival is not None:
                if fin_arrival > latest:
                    latest = fin_arrival
                if level[fin] > deepest:
                    deepest = level[fin]
        key = (gtype, len(fanins))
        delay = delays.get(key)
        if delay is None:
            delay = delays[key] = table.gate_delay(gtype, len(fanins))
        arrival[gid] = latest + delay
        level[gid] = deepest + 1
    return len(netlist.gates)


def _worst_path(netlist: GateNetlist, endpoint: EndpointTiming,
                driver: int, arrival: list[Optional[float]],
                level: list[int]) -> TimingPath:
    """Backtrack the arrival-defining chain of one endpoint.

    From the endpoint driver, follow the latest non-pruned fanin down
    to its launch point.  Ties break toward the lowest gate id, keeping
    the reported path deterministic.
    """
    gates = netlist.gates
    chain = [driver]
    current = driver
    while level[current] > 0:
        best = -1
        best_key: Optional[tuple[float, int]] = None
        for fin in gates[current].fanins:
            fin_arrival = arrival[fin]
            if fin_arrival is None:
                continue
            key = (fin_arrival, -fin)
            if best_key is None or key > best_key:
                best_key = key
                best = fin
        current = best
        chain.append(current)
    chain.reverse()
    steps = tuple(
        PathStep(gid=g, gtype=gates[g].gtype.value, name=gates[g].name,
                 arrival=arrival[g])  # type: ignore[arg-type]
        for g in chain)
    return TimingPath(endpoint=endpoint.name,
                      arrival=arrival[driver],  # type: ignore[arg-type]
                      slack=endpoint.slack, steps=steps)


def analyze_timing(netlist: GateNetlist, *, bits: int = 8,
                   table: Optional[DelayTable] = None,
                   period: Optional[float] = None,
                   library: ModuleLibrary = DEFAULT_LIBRARY,
                   budget: Optional[Budget] = None,
                   k_paths: int = 4,
                   sequential_constants: bool = False) -> TimingReport:
    """Run static timing analysis on ``netlist``.

    Args:
        netlist: the gate-level netlist to time.
        bits: data-path width (prices the default period derivation).
        table: per-gate-type delays; defaults to :data:`DEFAULT_TABLE`.
        period: clock period in gate units; None derives the library's
            implied period via :func:`default_period`.
        library: the module library validated against (``TIM005``).
        budget: cooperative budget; on exhaustion the endpoints the
            pass did not reach are tagged and the partial report stays
            well-formed.
        k_paths: how many worst paths to extract with named gates.
        sequential_constants: seed DFF launches with the reset-reachable
            constants of :func:`repro.atpg.prune.constant_lines`
            (stronger false-path pruning, one extra fixpoint pass).

    Returns:
        A :class:`TimingReport`; never raises on degenerate input — a
        combinational cycle or broken delay table blocks propagation
        and is reported instead.
    """
    table = table if table is not None else DEFAULT_TABLE
    problems = table.validate()
    allowance = (chain_allowance(bits, table, library)
                 if not problems else 0.0)
    is_default = period is None
    if period is None:
        period = (default_period(bits, table, library)
                  if not problems else 0.0)
    report = TimingReport(name=netlist.name, bits=bits, period=period,
                          period_is_default=is_default,
                          chain_allowance=allowance,
                          gates_total=len(netlist.gates),
                          table_problems=problems)
    if problems:
        return report
    report.library_problems = library_disagreements(bits, period, table,
                                                    library)
    ordered = in_topological_order(netlist)
    if not ordered:
        report.cycle = combinational_cycle(netlist)
        if report.cycle:
            return report  # no arrival on the loop is defined; TIM003

    # Endpoint order is deterministic: outputs by name, then DFFs by id.
    gates = netlist.gates
    dffs = netlist.dffs()
    endpoints: list[tuple[EndpointTiming, int]] = []
    for name, gid in sorted(netlist.outputs.items()):
        endpoints.append((EndpointTiming(name=name, kind="output", gid=gid),
                          gid))
    for gate in dffs:
        name = gate.name or f"dff{gate.gid}"
        if not gate.fanins:
            ep = EndpointTiming(name=name, kind="dff", gid=gate.gid,
                                analysed=False,
                                skip_reason="floating DFF (no D input)")
            report.degraded = True
            report.endpoints.append(ep)
            continue
        endpoints.append((EndpointTiming(name=name, kind="dff",
                                         gid=gate.gid), gate.fanins[0]))

    n = len(gates)
    arrival: list[Optional[float]] = [None] * n
    level = [0] * n
    if ordered:
        seeds: dict[int, Ternary] = {}
        if sequential_constants:
            from ...atpg.prune import constant_lines
            constants = constant_lines(netlist)
            seeds = {g.gid: constants[g.gid] for g in dffs
                     if g.gid in constants}
        values = propagate(netlist, seeds)
        report.pruned_total = sum(
            1 for gate in gates if values[gate.gid] is not None
            and gate.gtype not in SOURCE_TYPES
            and gate.gtype is not GateType.DFF)
        # Every gate below ``reached`` is timed.
        reached = _propagate_arrivals(netlist, values, arrival, level,
                                      table, budget)
        unreached = "budget_exhausted"
    else:
        reached = 0
        unreached = "gates not in topological (gid) order"
        report.degraded = True

    dff_required = period - table.setup
    for ep, driver in endpoints:
        report.endpoints.append(ep)
        if reached <= driver < n:
            ep.analysed = False
            ep.skip_reason = unreached
            continue
        try:
            chaos_point("timing.cone_eval", (ep.name, driver))
            ep.arrival = arrival[driver]
            ep.levels = level[driver]
        except ChaosCrash:
            raise  # simulated process death must not be absorbed
        except Exception as exc:  # noqa: BLE001 - per-endpoint barrier
            ep.analysed = False
            ep.skip_reason = f"{type(exc).__name__}: {exc}"
            report.degraded = True
            continue
        ep.required = dff_required if ep.kind == "dff" else period
        if ep.arrival is not None:
            ep.slack = ep.required - ep.arrival

    # K worst paths, named gate by gate, worst slack first.
    if k_paths > 0:
        timed = [(ep, driver) for ep, driver in endpoints
                 if ep.analysed and ep.arrival is not None]
        timed.sort(key=lambda item: (item[0].slack, item[0].name))
        report.paths = [_worst_path(netlist, ep, driver, arrival, level)
                        for ep, driver in timed[:k_paths]]

    if budget is not None and budget.exhausted():
        report.budget_exhausted = True
        report.budget_reason = budget.reason
    return report


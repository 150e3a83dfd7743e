"""Scan-mode evaluation: coverage vs. hardware overhead.

Compares a design's testability without scan, with partial scan
(loop-breaking or depth-driven selection) and with full scan, pricing
the scan muxes with the same module library the synthesis flow uses.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from ..atpg import ATPGConfig, FaultSimulator, full_fault_list
from ..atpg.podem import PodemEngine
from ..atpg.random_tpg import random_phase
from ..cost import ModuleLibrary, DEFAULT_LIBRARY
from ..gates.netlist import GateNetlist
from ..gates.simulate import CompiledCircuit
from ..runtime.budget import Budget
from .atpg import ScanTestCost, unroll_full_scan
from .expand import insert_scan_chain


@dataclass
class ScanResult:
    """Outcome of one scan-mode ATPG evaluation."""

    scanned_registers: list[str] = field(default_factory=list)
    chain_length: int = 0
    total_faults: int = 0
    detected: int = 0
    test_cycles: int = 0
    effort: int = 0
    seconds: float = 0.0
    overhead_mm2: float = 0.0
    #: The budget ran out: the random phase or PODEM stopped early and
    #: the coverage counts what was found by then.
    budget_exhausted: bool = False

    @property
    def fault_coverage(self) -> float:
        if not self.total_faults:
            return 0.0
        return 100.0 * self.detected / self.total_faults


def scan_overhead_mm2(chain_bits: int, library: ModuleLibrary | None = None,
                      bits: int = 1) -> float:
    """Area of the scan muxes: one 2-input mux bit per scanned flop."""
    library = library or DEFAULT_LIBRARY
    return chain_bits * library.mux_area(2, 1)


def evaluate_scan(netlist: GateNetlist, registers: list[str],
                  config: ATPGConfig | None = None,
                  budget: Budget | None = None) -> ScanResult:
    """Insert a chain over ``registers`` (mutates a copy) and run ATPG.

    The flow mirrors the engine: random sequences first (the chain is
    exercised by the weighted-random scan_enable bit), then full-scan
    combinational PODEM for the remainder, with scan cycle accounting.
    ``budget`` bounds both phases, as in :func:`~repro.atpg.run_atpg`;
    once it runs out, no further fault is attempted and the result is
    tagged ``budget_exhausted``.
    """
    import copy

    config = config or ATPGConfig()
    scanned = copy.deepcopy(netlist)
    chain = insert_scan_chain(scanned, registers)
    circuit = CompiledCircuit(scanned)
    faults = full_fault_list(scanned)
    result = ScanResult(scanned_registers=list(registers),
                        chain_length=chain.length,
                        total_faults=len(faults),
                        overhead_mm2=scan_overhead_mm2(chain.length))
    started = time.perf_counter()
    rng = random.Random(config.seed)

    simulator = FaultSimulator(circuit, budget=budget)
    random_result = random_phase(simulator, faults, config.random, rng,
                                 budget=budget)
    result.detected = len(random_result.detected)
    result.test_cycles = random_result.test_cycles
    result.effort += simulator.stats.cycles_simulated

    remaining = sorted(set(faults) - random_result.detected)
    if config.deterministic and remaining:
        engine = PodemEngine(unroll_full_scan(scanned),
                             max_backtracks=config.max_backtracks,
                             budget=budget)
        deterministic_tests = 0
        for fault in remaining:
            if budget is not None and budget.exhausted():
                break
            outcome = engine.generate(fault)
            result.effort += outcome.stats.effort
            if outcome.success:
                deterministic_tests += 1
                result.detected += 1
        result.test_cycles += ScanTestCost(deterministic_tests,
                                           chain.length).cycles
    result.budget_exhausted = budget is not None and budget.exhausted()
    result.seconds = time.perf_counter() - started
    return result

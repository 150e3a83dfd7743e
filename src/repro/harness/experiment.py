"""Experiment runner: benchmark × flow × bit-width → table cells.

One :func:`run_cell` reproduces one row-group cell of the paper's
Tables 1-3: synthesise with the chosen flow, generate RTL and the FSM
controller, expand to gates at the requested bit width, run the shared
ATPG engine, and price the data path with the floorplan-aware cost
model.  Every flow goes through the identical downstream pipeline, so
the comparison isolates the synthesis decisions — the paper's
experimental setup.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..atpg import ATPGConfig, ATPGResult, RandomPhaseConfig, run_atpg
from ..bench import load
from ..cost import CostModel
from ..dfg import unit_class, UnitClass
from ..etpn.design import Design
from ..gates import expand_with_controller
from ..rtl import build_control_table, generate_rtl
from ..runtime.budget import Budget
from ..synth import SynthesisParams, SynthesisResult, run_flow
from ..testability import analyze, sequential_depth_metric

#: The flow order the paper's tables use.
FLOW_ORDER = ("camad", "approach1", "approach2", "ours")

#: Each flow's name in the paper's tables.
FLOW_TITLES = {"camad": "CAMAD", "approach1": "Approach 1",
               "approach2": "Approach 2", "ours": "Ours"}

#: The (k, α, β) the paper reports per bit width (§5).
PAPER_PARAMS = {4: (3, 2.0, 1.0), 8: (3, 10.0, 1.0), 16: (3, 1.0, 10.0)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Budgets of one experiment run.

    The full-size 16-bit netlists are too big to fault-simulate
    exhaustively on a laptop, so fault sampling keeps runs tractable;
    fractions of 1.0 reproduce the complete universe.
    """

    bits: int = 8
    fault_fraction: float = 1.0
    random: RandomPhaseConfig = field(default_factory=lambda:
                                      RandomPhaseConfig(max_sequences=24,
                                                        saturation=5))
    max_backtracks: int = 64

    @staticmethod
    def quick(bits: int) -> "ExperimentConfig":
        """Budgets scaled so a full table regenerates in minutes."""
        fraction = {4: 1.0, 8: 0.30, 16: 0.06}.get(bits, 1.0)
        sequences = {4: 24, 8: 16, 16: 10}.get(bits, 16)
        return ExperimentConfig(
            bits=bits, fault_fraction=fraction,
            random=RandomPhaseConfig(max_sequences=sequences, saturation=4))


@dataclass
class CellResult:
    """One flow's numbers at one bit width."""

    benchmark: str
    flow: str
    bits: int
    design: Design
    atpg: ATPGResult
    area_mm2: float
    mux_count: int
    module_groups: dict[str, list[str]]
    register_groups: dict[str, list[str]]
    seq_depth: float
    testability_quality: float
    #: True when any stage ran out of budget or degraded; the numbers
    #: then describe a valid partial run, not the converged result.
    degraded: bool = False
    #: Why (synthesis degradation reasons + ATPG budget provenance).
    degradation: tuple[str, ...] = ()

    def row(self) -> dict[str, object]:
        """Flat dict for table rendering and EXPERIMENTS.md."""
        return {
            "benchmark": self.benchmark,
            "flow": self.flow,
            "bits": self.bits,
            "steps": self.design.num_steps,
            "modules": self.design.binding.module_count(),
            "registers": self.design.binding.register_count(),
            "muxes": self.mux_count,
            "coverage_pct": round(self.atpg.fault_coverage, 2),
            "tg_effort_k": round(self.atpg.tg_effort / 1000.0, 1),
            "tg_seconds": round(self.atpg.tg_seconds, 2),
            "test_cycles": self.atpg.test_cycles,
            "area_mm2": round(self.area_mm2, 3),
            "seq_depth": round(self.seq_depth, 1),
            "degraded": self.degraded,
            # Always False: recorded rows and journals still carry it.
            "narrowed": False,
        }


def synthesize_flow_result(benchmark: str, flow: str, bits: int,
                           budget: Budget | None = None) -> SynthesisResult:
    """Run one of the four flows, keeping the full result (history,
    skipped candidates, degradation provenance); ``ours`` runs with the
    paper's (k, α, β) for ``bits``."""
    params = None
    if flow == "ours":
        k, alpha, beta = PAPER_PARAMS.get(bits, (3, 2.0, 1.0))
        params = SynthesisParams(k=k, alpha=alpha, beta=beta)
    return run_flow(flow, load(benchmark), cost_model=CostModel(bits=bits),
                    params=params, budget=budget)


def synthesize_flow(benchmark: str, flow: str, bits: int) -> Design:
    """Run one of the four flows on a named benchmark."""
    return synthesize_flow_result(benchmark, flow, bits).design


def run_cell(benchmark: str, flow: str,
             config: ExperimentConfig,
             budget: Budget | None = None) -> CellResult:
    """Produce one table cell (synthesis + ATPG + cost).

    The gate model embeds the FSM controller, so only the data ports
    are ATPG-controllable (DESIGN §6, "Test setting").  A shared
    ``budget`` bounds both the synthesis loop and the ATPG run; an
    exhausted budget yields a valid, ``degraded``-flagged cell instead
    of a crash or a hang.  Grid cells reach this through
    :func:`repro.runtime.run_journaled_grid`'s one evaluator, which
    turns the cell into its journal record.
    """
    synthesis = synthesize_flow_result(benchmark, flow, config.bits,
                                       budget=budget)
    design = synthesis.design
    rtl = generate_rtl(design, config.bits)
    table = build_control_table(design, rtl)
    netlist = expand_with_controller(rtl, table)
    max_frames = 2 * table.phase_count + 1
    sequence_length = 4 * (design.num_steps + 1)
    atpg_config = ATPGConfig(
        random=replace(config.random, sequence_length=sequence_length),
        max_frames=max_frames,
        max_backtracks=config.max_backtracks,
        fault_fraction=config.fault_fraction)
    atpg = run_atpg(netlist, atpg_config, budget=budget)

    degradation = list(synthesis.degradation_reasons)
    if atpg.budget_exhausted:
        degradation.append(f"atpg budget_exhausted:{atpg.budget_reason}")
    cost_model = CostModel(bits=config.bits)
    area = cost_model.hardware_total(design.datapath)
    analysis = analyze(design.datapath)
    return CellResult(
        benchmark=benchmark, flow=flow, bits=config.bits, design=design,
        atpg=atpg, area_mm2=area, mux_count=design.datapath.mux_count(),
        module_groups=design.binding.modules(),
        register_groups=design.binding.registers(),
        seq_depth=sequential_depth_metric(design.datapath),
        testability_quality=analysis.design_quality(),
        degraded=bool(degradation), degradation=tuple(degradation))


def module_symbol(design: Design, module: str) -> str:
    """The paper's module-kind symbol: (*) multiplier, (+-) ALU..."""
    ops = design.binding.ops_on(module)
    kinds = {design.dfg.operation(o).kind for o in ops}
    classes = {unit_class(k) for k in kinds}
    if UnitClass.MULTIPLIER in classes:
        return "*"
    symbols = sorted(str(k) for k in kinds)
    return "".join(symbols)[:2] or "?"

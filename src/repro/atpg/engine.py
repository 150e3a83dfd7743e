"""The combined ATPG engine: random phase, then deterministic PODEM.

This is the test-generation flow the paper's testability assumptions
describe (§2): random test generation covers the bulk of the fault
list cheaply, and a deterministic sequential generator (PODEM over
time-frame expansion) targets what remains.  Designs with better
balanced controllability/observability and shorter sequential depth
need fewer time frames and fewer backtracks — which is exactly how the
synthesis algorithm's choices surface in the reported numbers.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from ..errors import ATPGError
from ..gates.netlist import GateNetlist
from ..gates.simulate import CompiledCircuit
from ..runtime.budget import Budget
from .fault_sim import FaultSimulator
from .faults import Fault, full_fault_list, sample_faults
from .podem import PodemEngine
from .random_tpg import RandomPhaseConfig, random_phase
from .results import ATPGResult
from .unroll import unroll

#: Seed of every run's random phase and fault sampling, so a run is a
#: function of its netlist and config.
ATPG_SEED = 2026


@dataclass
class ATPGConfig:
    """Budget and policy knobs of a full ATPG run."""

    random: RandomPhaseConfig = field(default_factory=RandomPhaseConfig)
    #: Deterministic phase tries 1..max_frames time frames per fault.
    max_frames: int = 6
    max_backtracks: int = 48
    #: Sample this fraction of the fault universe (1.0 = all faults).
    fault_fraction: float = 1.0
    #: Skip the deterministic phase entirely (random-only ATPG).
    deterministic: bool = True
    #: Prune faults the sequential constant-propagation analysis proves
    #: untestable before spending any random/PODEM budget on them.
    analysis_prune: bool = True


def run_atpg(netlist: GateNetlist, config: ATPGConfig | None = None,
             budget: Budget | None = None) -> ATPGResult:
    """Run the full ATPG flow on a gate netlist.

    When ``budget`` is given, every phase — random TPG, fault
    simulation and PODEM — charges it and stops cleanly at its next
    boundary once it is exhausted; faults never attempted are counted
    as aborted, and the result carries ``budget_exhausted`` provenance
    instead of the run hanging or dying.

    Raises:
        ATPGError: ``config.max_frames`` is below 1, before any phase runs.
    """
    config = config or ATPGConfig()
    if config.max_frames < 1:
        raise ATPGError(f"max_frames must be at least 1, got "
                        f"{config.max_frames}")
    rng = random.Random(ATPG_SEED)
    started = time.perf_counter()

    circuit = CompiledCircuit(netlist)
    faults = full_fault_list(netlist)
    faults = sample_faults(faults, config.fault_fraction, seed=ATPG_SEED)
    result = ATPGResult(total_faults=len(faults),
                        gate_count=len(netlist),
                        dff_count=len(netlist.dffs()))
    if config.analysis_prune:
        # Stuck-at faults matching a proved-constant line are
        # undetectable by construction; report them instead of burning
        # random/PODEM budget proving it the hard way.  They stay in
        # ``total_faults`` so coverage denominators are comparable with
        # and without pruning.
        from .prune import constant_lines, prune_untestable
        faults, pruned = prune_untestable(faults, constant_lines(netlist))
        result.untestable_by_analysis = len(pruned)

    simulator = FaultSimulator(circuit, budget=budget)
    random_result = random_phase(simulator, faults, config.random, rng,
                                 budget=budget)
    result.detected_random = len(random_result.detected)
    result.random_cycles = random_result.test_cycles
    result.random_effort = (simulator.stats.cycles_simulated
                            * max(1, netlist.combinational_count() // 100))

    remaining = sorted(set(faults) - random_result.detected)
    if config.deterministic and remaining:
        _deterministic_phase(netlist, circuit, simulator, remaining,
                             config, rng, result, budget)
    if budget is not None and budget.exhausted():
        result.budget_exhausted = True
        result.budget_reason = budget.reason or ""
    result.tg_seconds = time.perf_counter() - started
    return result


def _deterministic_phase(netlist: GateNetlist, circuit: CompiledCircuit,
                         simulator: FaultSimulator, remaining: list[Fault],
                         config: ATPGConfig, rng: random.Random,
                         result: ATPGResult,
                         budget: Budget | None = None) -> None:
    ladder = sorted({max(2, config.max_frames // 4),
                     max(2, config.max_frames // 2), config.max_frames})
    engines: dict[int, PodemEngine] = {}

    def engine_for(frames: int) -> PodemEngine:
        # One unrolled model serves the whole ladder: a smaller rung is
        # a prefix of the largest (see UnrolledCircuit.prefix).
        if not engines:
            engines[ladder[-1]] = PodemEngine(
                unroll(netlist, ladder[-1]),
                max_backtracks=config.max_backtracks,
                budget=budget)
        if frames not in engines:
            engines[frames] = engines[ladder[-1]].prefix(frames)
        return engines[frames]

    alive = list(remaining)
    while alive:
        if budget is not None and budget.exhausted():
            # Remaining faults were never attempted under this budget:
            # count them as aborted so the coverage accounting closes.
            result.aborted_faults += len(alive)
            result.budget_exhausted = True
            result.budget_reason = budget.reason or ""
            return
        fault = alive.pop(0)
        test_sequence = None
        aborted_any = False
        for frames in ladder:
            engine = engine_for(frames)
            outcome = engine.generate(fault)
            result.deterministic_effort += outcome.stats.effort
            if outcome.success:
                test_sequence = _assignment_to_sequence(
                    circuit, outcome.assignment, frames, rng)
                break
            if outcome.aborted:
                aborted_any = True
        if test_sequence is None:
            if aborted_any:
                result.aborted_faults += 1
            else:
                result.untestable_faults += 1
            continue
        caught = simulator.run_sequence(test_sequence, [fault] + alive)
        if fault in caught:
            result.deterministic_cycles += len(test_sequence)
            result.detected_deterministic += 1 + len(caught - {fault})
            alive = [f for f in alive if f not in caught]
        else:
            # The model guarantees detection; reaching here indicates a
            # modelling divergence worth counting, not hiding.
            result.aborted_faults += 1
            result.divergent_faults += 1


def _assignment_to_sequence(circuit: CompiledCircuit,
                            assignment: dict[tuple[int, str], int],
                            frames: int,
                            rng: random.Random) -> list[dict[str, int]]:
    """Expand a PODEM PI assignment into input vectors (X -> random)."""
    sequence: list[dict[str, int]] = []
    for frame in range(frames):
        vector: dict[str, int] = {}
        for name in circuit.input_names:
            value = assignment.get((frame, name))
            vector[name] = rng.getrandbits(1) if value is None else value
        sequence.append(vector)
    return sequence

"""Random test generation: the ATPG's first phase (paper §2).

"Many ATPG's start by using random test generation to cover as many
faults as possible and then switch to deterministic test generation."

Sequences of weighted-random vectors are fault-simulated with fault
dropping; a sequence joins the test set only when it detects at least
one not-yet-detected fault, and the random phase ends after a fixed
number of consecutive useless sequences (the usual saturation rule).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from ..gates.simulate import CompiledCircuit
from ..runtime.budget import Budget
from .fault_sim import FaultSimulator
from .faults import Fault


#: Probability a register load-enable bit is 1: biased high so data
#: actually moves through the machine.
LOAD_BIAS = 0.75
#: Probability a mux-select / op-select bit is 1.
SELECT_BIAS = 0.4
#: Probability a data bit is 1.
DATA_BIAS = 0.5


@dataclass
class RandomPhaseConfig:
    """Knobs of the random phase.

    Attributes:
        max_sequences: hard budget of candidate sequences.
        saturation: stop after this many consecutive sequences that
            detect nothing new.
        sequence_length: cycles per sequence.
    """

    max_sequences: int = 48
    saturation: int = 8
    sequence_length: int = 24


@dataclass
class RandomPhaseResult:
    """Outcome of the random phase."""

    detected: set[Fault] = field(default_factory=set)
    kept_sequences: list[list[dict[str, int]]] = field(default_factory=list)
    sequences_tried: int = 0
    #: True when the phase stopped early on an exhausted budget.
    budget_exhausted: bool = False

    @property
    def test_cycles(self) -> int:
        """Cycles of the kept (useful) sequences."""
        return sum(len(seq) for seq in self.kept_sequences)


def _bit_bias(name: str) -> float:
    if name.endswith("_load"):
        return LOAD_BIAS
    if "_sel" in name or "_op_" in name:
        return SELECT_BIAS
    return DATA_BIAS


def random_sequence(circuit: CompiledCircuit, config: RandomPhaseConfig,
                    rng: random.Random) -> list[dict[str, int]]:
    """One weighted-random input sequence (single-bit values)."""
    biases = [(name, _bit_bias(name)) for name in circuit.input_names]
    sequence = []
    for _ in range(config.sequence_length):
        sequence.append({name: int(rng.random() < bias)
                         for name, bias in biases})
    return sequence


def random_phase(simulator: FaultSimulator, faults: list[Fault],
                 config: RandomPhaseConfig,
                 rng: random.Random,
                 budget: Budget | None = None) -> RandomPhaseResult:
    """Run the random phase with fault dropping.

    An exhausted ``budget`` ends the phase at the next sequence
    boundary; the partial result (whatever was detected so far) is
    tagged ``budget_exhausted``.
    """
    remaining = sorted(faults)
    result = RandomPhaseResult()
    useless = 0
    while (remaining and result.sequences_tried < config.max_sequences
           and useless < config.saturation):
        if budget is not None and budget.exhausted():
            result.budget_exhausted = True
            break
        sequence = random_sequence(simulator.circuit, config, rng)
        result.sequences_tried += 1
        caught = simulator.run_sequence(sequence, remaining)
        if caught:
            useless = 0
            result.detected |= caught
            result.kept_sequences.append(sequence)
            remaining = [f for f in remaining if f not in caught]
        else:
            useless += 1
    return result

"""The benchmark's workloads and the inputs a seed makes from them.

Every workload runs the same three paths, cold (no result cache):

* table cells: synthesis, RTL, gate expansion, ATPG and area pricing
  of one benchmark under all four flows at one bit width — one column
  of the paper's Tables 1-3, with a reduced ATPG budget so a cell takes
  about a second;
* the journaled grid those cells run in: the grid is cut after a
  seeded number of cells (an interrupted ``table --journal`` run) and
  then resumed from the journal, which replays the cut cells and runs
  the rest;
* an ``explore`` sweep: Algorithm 1 over the default (k, alpha, beta)
  grid, without ATPG.

The seed picks the order of the grid and of the sweep and the point at
which the grid is cut.  The total work of a round is the same for
every seed, so rounds of different seeds compare.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    bits: int
    grid_benchmark: str
    sweep_benchmark: str
    fault_fraction: float


WORKLOADS = {w.name: w for w in (
    Workload("narrow",
             "4-bit Ex cells and an Ex sweep: small netlists, so "
             "synthesis and floorplanning carry the largest share",
             bits=4, grid_benchmark="ex", sweep_benchmark="ex",
             fault_fraction=0.15),
    Workload("wide",
             "8-bit IIR cells and an AR-lattice sweep: wide netlists, so "
             "PODEM and fault simulation carry the largest share",
             bits=8, grid_benchmark="iir", sweep_benchmark="ar",
             fault_fraction=0.05),
)}

FLOWS = ("camad", "approach1", "approach2", "ours")


def cell_config(workload: Workload):
    """The ExperimentConfig every cell of the workload runs with."""
    from repro.atpg import RandomPhaseConfig
    from repro.harness.experiment import ExperimentConfig
    return ExperimentConfig(
        bits=workload.bits, fault_fraction=workload.fault_fraction,
        random=RandomPhaseConfig(max_sequences=8, saturation=3),
        max_backtracks=16)


@dataclass(frozen=True)
class Inputs:
    grid: list[tuple[str, int]]            # (flow, bits) in run order
    cut: int                               # cells run before the resume
    sweep: list[tuple[int, float, float]]  # (k, alpha, beta) in run order


def make_inputs(workload: Workload, seed: int) -> Inputs:
    from repro.synth.explore import DEFAULT_GRID
    rng = random.Random(seed)
    grid = [(flow, workload.bits) for flow in FLOWS]
    rng.shuffle(grid)
    sweep = list(DEFAULT_GRID)
    rng.shuffle(sweep)
    return Inputs(grid=grid, cut=rng.randint(1, len(grid) - 1), sweep=sweep)

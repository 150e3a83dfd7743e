"""Regenerate ``expected.json``, the rows and sweep points run.py checks.

    python3 perfbench/make_expected.py

Cells come from ``run_cell`` one at a time and the sweep from
``explore`` in its default grid order — not the journaled, seeded paths
the benchmark times — so a check failure points at the timed path.
Wall-clock ``tg_seconds`` is dropped from every row.  Rerun only when a
change is meant to alter the tables.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro.bench import load  # noqa: E402
from repro.cost import CostModel  # noqa: E402
from repro.harness.experiment import run_cell  # noqa: E402
from repro.synth.explore import explore, pareto_front  # noqa: E402
from workloads import FLOWS, WORKLOADS, cell_config  # noqa: E402


def triples(points: list) -> list:
    return sorted([p.execution_time, round(p.hardware_mm2, 9),
                   round(p.quality, 9)] for p in points)


def expected_for(workload) -> dict:
    rows = {}
    for flow in FLOWS:
        row = run_cell(workload.grid_benchmark, flow,
                       cell_config(workload)).row()
        row.pop("tg_seconds")
        rows[flow] = row
    points = explore(load(workload.sweep_benchmark),
                     CostModel(bits=workload.bits))
    return {"rows": rows, "points": triples(points),
            "front": triples(pareto_front(points))}


if __name__ == "__main__":
    expected = {name: expected_for(w) for name, w in WORKLOADS.items()}
    (HERE / "expected.json").write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n")

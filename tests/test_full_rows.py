"""The recorded full-fault table rows are the code's.

``benchmarks/out/rows.jsonl`` holds Tables 1–3 as the full fault
universe (``ExperimentConfig(bits=b)``, ``REPRO_BENCH_FULL=1``) gives
them.  The eight 4-bit Ex and Diffeq cells run here, and each must equal
its recorded row in every deterministic column: everything but the
wall-clock ``tg_seconds``.  So a change that is meant to keep the rows
(a speedup of PODEM or of fault simulation) is checked against the
tables themselves, effort included.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.harness import FLOW_ORDER, ExperimentConfig, run_cell

ROWS = Path(__file__).resolve().parents[1] / "benchmarks" / "out" / "rows.jsonl"

#: The table kind each benchmark's rows are recorded under.
TABLES = {"ex": "table1", "diffeq": "table3"}

#: The columns a cell computes the same on every run.
DETERMINISTIC = ("steps", "modules", "registers", "muxes", "coverage_pct",
                 "tg_effort_k", "test_cycles", "area_mm2", "seq_depth",
                 "degraded")


def recorded_row(benchmark: str, flow: str, bits: int) -> dict:
    """The one recorded table row of a cell."""
    rows = [row for row in map(json.loads, ROWS.read_text().splitlines())
            if row["kind"] == TABLES[benchmark]
            and (row["benchmark"], row["flow"], row["bits"])
            == (benchmark, flow, bits)]
    assert len(rows) == 1, (benchmark, flow, bits)
    return rows[0]


# Not ``benchmark``: pytest-benchmark owns that fixture name.
@pytest.mark.parametrize("flow", FLOW_ORDER)
@pytest.mark.parametrize("name", sorted(TABLES))
def test_full_fault_cell_equals_its_recorded_row(name, flow):
    row = run_cell(name, flow, ExperimentConfig(bits=4)).row()
    recorded = recorded_row(name, flow, 4)
    assert ({column: row[column] for column in DETERMINISTIC}
            == {column: recorded[column] for column in DETERMINISTIC})

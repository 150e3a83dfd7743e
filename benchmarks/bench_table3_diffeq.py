"""Table 3 — the area-optimised Diffeq benchmark (paper §5).

The looping HAL design: the control part has a guarded back edge, so
this table also exercises the loop handling (the loop condition leaves
the data path as a status port) end to end.
"""

from __future__ import annotations

import pytest

from _support import (bench_bits, paper_comparison, record_row, record_text,
                      table_cell)
from repro.harness import FLOW_ORDER, render_table

_CELLS = []


@pytest.mark.parametrize("bits", bench_bits())
@pytest.mark.parametrize("flow", FLOW_ORDER)
def test_table3_cell(benchmark, flow, bits):
    cell = benchmark.pedantic(table_cell, args=("diffeq", flow, bits),
                              rounds=1, iterations=1)
    row = paper_comparison(cell)
    benchmark.extra_info.update(row)
    record_row("table3", row)
    _CELLS.append(cell)
    assert cell.atpg.fault_coverage > 50.0
    assert cell.design.dfg.loop_condition == "cond"


def test_table3_render(benchmark):
    if not _CELLS:
        pytest.skip("cells not collected in this run")
    text = benchmark.pedantic(lambda: render_table("diffeq", _CELLS, show_area=True), rounds=1, iterations=1)
    record_text("table3_diffeq.txt", text)
    print("\n" + text)
    assert "Approach 2" in text

"""Pinned PODEM decisions on the 4-bit benchmark netlists.

PODEM's effort reaches every table row as ``tg_effort_k`` and its
verdicts decide the coverage, so a change to the engine that moves one
implication, backtrack or decision shows in the tables.  These digests
pin every :class:`PodemResult` (success, the assigned inputs,
implications, backtracks, decisions and the abort reason) on every
``STRIDE``-th collapsed fault of the 4-bit Ex, Diffeq and Tseng
netlists of all four flows.  Each fault runs on every rung of the
deterministic phase's frame ladder, served through
:meth:`PodemEngine.prefix` as ``run_atpg`` serves it, at
``max_backtracks=64``.

To regenerate after an intended change of decisions, run::

    PYTHONPATH=src python tests/test_atpg_pin.py

and paste its output over the table below.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.atpg import PodemEngine, full_fault_list, unroll
from repro.gates import expand_with_controller
from repro.harness.experiment import FLOW_ORDER, synthesize_flow_result
from repro.rtl import build_control_table, generate_rtl

BENCHMARKS = ("ex", "diffeq", "tseng")
BITS = 4
STRIDE = 9
MAX_BACKTRACKS = 64

#: sha256 (first 16 hex digits) of each (benchmark, flow)'s results.
PODEM_DIGESTS: dict[tuple[str, str], str] = {
    ('ex', 'camad'): 'bab775700cc7eca4',
    ('ex', 'approach1'): 'c530229f2481ee98',
    ('ex', 'approach2'): 'c530229f2481ee98',
    ('ex', 'ours'): 'e78350d7413a8436',
    ('diffeq', 'camad'): 'aaa8567227aa6bca',
    ('diffeq', 'approach1'): 'cb53a60508a0b2ce',
    ('diffeq', 'approach2'): 'cb53a60508a0b2ce',
    ('diffeq', 'ours'): 'd579140a6589dfab',
    ('tseng', 'camad'): '8881b505aa19d564',
    ('tseng', 'approach1'): 'fc5b07b96bb1bae8',
    ('tseng', 'approach2'): 'fc5b07b96bb1bae8',
    ('tseng', 'ours'): '05963afc803c41db',
}


def podem_digest(benchmark: str, flow: str) -> str:
    """Digest of every sampled (fault, frames, result) of one netlist."""
    design = synthesize_flow_result(benchmark, flow, BITS).design
    rtl = generate_rtl(design, BITS)
    table = build_control_table(design, rtl)
    net = expand_with_controller(rtl, table)
    max_frames = 2 * table.phase_count + 1
    ladder = sorted({max(2, max_frames // 4), max(2, max_frames // 2),
                     max_frames})
    largest = PodemEngine(unroll(net, ladder[-1]),
                          max_backtracks=MAX_BACKTRACKS)
    engines = [largest.prefix(frames) for frames in ladder]
    lines = []
    for fault in full_fault_list(net)[::STRIDE]:
        for engine in engines:
            result = engine.generate(fault)
            stats = result.stats
            lines.append(
                f"{fault}|{engine.model.frames}|{result.success}|"
                f"{sorted(result.assignment.items())}|"
                f"{stats.implications}|{stats.backtracks}|"
                f"{stats.decisions}|{result.aborted}|{result.abort_reason}")
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _ids(case: tuple[str, str]) -> str:
    return f"{case[0]}-{case[1]}"


def test_every_benchmark_and_flow_is_pinned():
    assert set(PODEM_DIGESTS) == {(b, f) for b in BENCHMARKS
                                  for f in FLOW_ORDER}


@pytest.mark.slow
@pytest.mark.parametrize("case", sorted(PODEM_DIGESTS), ids=_ids)
def test_podem_results(case):
    assert podem_digest(*case) == PODEM_DIGESTS[case]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("PODEM_DIGESTS = {")
    for benchmark in BENCHMARKS:
        for flow in FLOW_ORDER:
            print(f"    ({benchmark!r}, {flow!r}): "
                  f"{podem_digest(benchmark, flow)!r},")
    print("}")

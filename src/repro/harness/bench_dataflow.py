"""Perf and effect baselines for the dataflow engine.

Each cell (benchmark × width) measures what the abstract-interpretation
tier buys and what it costs on one CPU:

* **analysis time** — wall time of one full fixpoint
  (:func:`~repro.analysis.dataflow.analyze_dataflow`).  The first
  in-process run is recorded as *cold* and the minimum over the
  remaining repeats as *warm*, per the repo's single-core timing
  protocol: one core means no co-runner noise, but the first run still
  pays allocator and bytecode warm-up that steady-state callers (the
  lint layer's memoised certificate, the experiment harness) never see.
* **certificate soundness** — :meth:`DataflowCertificate.check` under
  random concrete vectors, for the unconstrained certificate and the
  input-assumption one, in both design flows.
* **width narrowing** — the equivalence-gated area delta of
  :func:`~repro.cost.narrow_design` on the ``default`` and ``ours``
  design points.  Narrowing cells assume primary inputs occupy at most
  ``min(input_bits, bits)`` bits (recorded in the report): with inputs
  spanning the full word no high bit is provably dead, which is the
  honest answer but a vacuous benchmark.
* **fault pruning** — faults on the ``ours`` gate netlist that
  sequential ternary constant propagation
  (:func:`~repro.atpg.prune.constant_lines`) proves untestable, and
  the analysis time it took — the budget PODEM never has to spend.

The report is written atomically so an interrupted run never leaves a
truncated baseline file.
"""

from __future__ import annotations

import json
import time
from typing import Callable, Optional

from ..analysis.dataflow import (DataflowCertificate, analyze_dataflow,
                                 input_assumptions)
from ..atpg.faults import full_fault_list
from ..atpg.prune import constant_lines, prune_untestable
from ..bench import load, names
from ..cost import CostModel, narrow_design
from ..etpn.from_dfg import default_design
from ..gates import expand_to_gates
from ..rtl import generate_rtl
from ..runtime.atomic import atomic_write_text
from ..synth import run_ours

#: Report schema tag, bumped when the cell layout changes.
SCHEMA = "repro.bench_dataflow/v1"

#: Design flows whose narrowing effect each cell records.
FLOWS = ("default", "ours")


def _timed_analysis(dfg, bits: int, repeats: int,
                    assumptions=None) -> tuple[DataflowCertificate,
                                               float, float]:
    """(certificate, cold seconds, warm seconds) for one fixpoint."""
    cert = analyze_dataflow(dfg, bits, assumptions=assumptions)
    cold = cert.elapsed_seconds
    warm = cold
    for _ in range(max(0, repeats - 1)):
        again = analyze_dataflow(dfg, bits, assumptions=assumptions)
        warm = min(warm, again.elapsed_seconds)
    return cert, cold, warm


def time_cell(benchmark: str, bits: int, repeats: int, vectors: int,
              input_bits: int) -> dict:
    """One cell: analysis timing, cert checks, narrowing, pruning."""
    dfg = load(benchmark)
    plain, cold, warm = _timed_analysis(dfg, bits, repeats)
    plain_problems = plain.check(dfg, vectors=vectors)

    assumptions = input_assumptions(dfg, bits, input_bits)
    assumed, _, _ = _timed_analysis(dfg, bits, 1, assumptions=assumptions)
    assumed_problems = assumed.check(dfg, vectors=vectors)

    flows = {}
    ours_design = None
    for flow in FLOWS:
        if flow == "default":
            design = default_design(dfg)
        else:
            design = run_ours(dfg, cost_model=CostModel(bits=bits)).design
            ours_design = design
        report = narrow_design(design, bits, assumptions=assumptions,
                               cert=assumed)
        flows[flow] = {
            "cert_check_ok": not report.certificate.check(dfg,
                                                          vectors=vectors)
            if report.certificate is not None else False,
            **report.to_dict(),
        }

    assert ours_design is not None  # FLOWS always contains "ours"
    netlist = expand_to_gates(generate_rtl(ours_design, bits))
    faults = full_fault_list(netlist)
    t0 = time.perf_counter()
    constants = constant_lines(netlist)
    prune_seconds = time.perf_counter() - t0
    _kept, pruned = prune_untestable(faults, constants)

    return {
        "benchmark": benchmark,
        "bits": bits,
        "ops": len(dfg.operations),
        "loop": bool(plain.feedback),
        "loop_iterations": plain.loop_iterations,
        "widened": plain.widened,
        "analysis_cold_seconds": round(cold, 6),
        "analysis_warm_seconds": round(warm, 6),
        "constant_ops": len(plain.constant_ops()),
        "known_bits": plain.known_bit_total(),
        "max_required_width": plain.max_required_width(),
        "check_vectors": vectors,
        "check_ok": not plain_problems and not assumed_problems,
        "check_problems": plain_problems + assumed_problems,
        "flows": flows,
        "prune": {
            "gates": len(netlist),
            "dffs": len(netlist.dffs()),
            "total_faults": len(faults),
            "pruned": len(pruned),
            "constant_lines": len(constants),
            "prune_seconds": round(prune_seconds, 6),
        },
    }


def run_bench_dataflow(bits: Optional[list[int]] = None, repeats: int = 3,
                       vectors: int = 64, input_bits: int = 8,
                       output: str = "BENCH_dataflow.json",
                       progress: Optional[Callable[[str], None]] = None
                       ) -> dict:
    """Run every benchmark × width cell and write the baseline file.

    Returns the report dict (also written to ``output`` atomically).
    """
    widths = bits if bits is not None else [4, 8, 16]
    cells = []
    for benchmark in names():
        for width in widths:
            cell = time_cell(benchmark, width, repeats, vectors, input_bits)
            cells.append(cell)
            if progress is not None:
                deltas = ", ".join(
                    f"{flow} {cell['flows'][flow]['area_delta_pct']:+.1f}%"
                    for flow in FLOWS)
                progress(f"{benchmark}/{width}-bit: analysis "
                         f"{cell['analysis_warm_seconds'] * 1e3:.2f}ms, "
                         f"{cell['prune']['pruned']} faults pruned, "
                         f"area {deltas}")

    with_pruned = {c["benchmark"] for c in cells
                   if c["prune"]["pruned"] > 0}
    with_delta = {c["benchmark"] for c in cells
                  if any(c["flows"][f]["applied"]
                         and c["flows"][f]["area_delta_mm2"] > 0
                         for f in FLOWS)}
    report = {
        "schema": SCHEMA,
        "input_assumption": f"primary inputs occupy at most "
                            f"min({input_bits}, bits) bits in the "
                            f"narrowing cells",
        "repeats": repeats,
        "vectors": vectors,
        "cells": cells,
        "cells_total": len(cells),
        "all_certs_ok": all(
            c["check_ok"] and all(c["flows"][f]["cert_check_ok"]
                                  for f in FLOWS) for c in cells),
        "benchmarks_with_pruned": len(with_pruned),
        "benchmarks_with_area_delta": len(with_delta),
        "all_narrowing_equivalence_valid": all(
            c["flows"][f]["equivalence_valid"]
            for c in cells for f in FLOWS),
    }
    atomic_write_text(output, json.dumps(report, indent=2) + "\n")
    return report

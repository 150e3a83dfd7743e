"""Cold end-to-end and per-layer benchmark of the table pipeline.

Run from the repository root:

    python3 perfbench/run.py --workload narrow --seed 1 --seconds 40 --trace 0

A run sets up (imports the program from ``src/`` and builds the seeded
inputs of :mod:`workloads`), then repeats rounds until ``--seconds``
have passed (at least three).  A round runs the journaled grid of table
cells — interrupted at the seeded cut, then resumed — and one explore
sweep, and checks every cell row and every sweep point against
``expected.json``.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

Every time is reported at a reference host speed (see
:class:`HostClock`), as milliseconds or seconds.

``--trace 0`` reports the end-to-end metrics, medians over the rounds:

* ``grid_ms``: one journaled grid pass, interrupted run plus resume;
* ``cell_ms``: one table cell, the mean over the cells of a round;
* ``sweep_ms``: one explore sweep;
* ``setup_s``: import and input building, the median of fifteen fresh
  interpreter processes.

``--trace 1`` wraps the entry points of every layer (see
:mod:`tracing`) and reports each layer's self time and work counts per
round, medians over the rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

MIN_ROUNDS = 3
SETUP_SAMPLES = 15

#: The host probe: random reads and writes over a list of a few MB, as
#: PODEM and the fault simulator walk their netlist arrays, and the time
#: it is taken to need at the reference host speed.
PROBE_LIST = 400_000
PROBE_STEPS = 100_000
REFERENCE_PROBE_S = 0.03

#: Per-layer self-time metrics (ms per round), by tracing layer; the
#: ``cell`` layer's self time is reported as ``cell_self_ms``.
LAYER_TIMES = ("synth", "floorplan", "rtl", "gates", "atpg_setup",
               "unroll", "random_tpg", "podem", "fault_sim", "testability",
               "journal", "cell_self")
#: Per-layer work counts per round, by tracer counter.
LAYER_COUNTS = ("floorplan_calls", "podem_calls", "podem_backtracks",
                "podem_implications", "fault_sim_calls", "journal_calls")


class Bench:
    """The program's entry points and one workload's seeded inputs."""

    def __init__(self, workload_name: str, seed: int) -> None:
        if not (ROOT / "src" / "repro").is_dir():
            sys.exit(f"perfbench: no program source at {ROOT / 'src'}")
        sys.path.insert(0, str(ROOT / "src"))
        from repro.bench import load
        from repro.cost import CostModel
        from repro.runtime.checkpoint import Journal, run_journaled_grid
        from repro.synth.explore import explore, pareto_front
        from workloads import WORKLOADS, cell_config, make_inputs

        self.workload = WORKLOADS[workload_name]
        self.inputs = make_inputs(self.workload, seed)
        self.config = cell_config(self.workload)
        self.sweep_dfg = load(self.workload.sweep_benchmark)
        self.cost_model = CostModel(bits=self.workload.bits)
        expected = json.loads((HERE / "expected.json").read_text())
        self.expected = expected[workload_name]
        self._journal = Journal
        self._grid = run_journaled_grid
        self._explore = explore
        self._front = pareto_front

    def grid(self, journal_path: Path) -> tuple[list, int]:
        """Run the grid to the cut, then resume it; (cells, journal size)."""
        journal = self._journal(journal_path)
        inputs, benchmark = self.inputs, self.workload.grid_benchmark
        self._grid(benchmark, inputs.grid[:inputs.cut],
                   lambda bits: self.config, journal=journal)
        cells = self._grid(benchmark, inputs.grid, lambda bits: self.config,
                           journal=journal, resume=True)
        return cells, len(journal.records())

    def sweep(self) -> list:
        return self._explore(self.sweep_dfg, self.cost_model,
                             self.inputs.sweep)

    def bad_cells(self, cells: list, journaled: int) -> int:
        """Cells whose row differs from the expected one."""
        bad = 0 if journaled == len(self.inputs.grid) else 1
        for cell in cells:
            row = cell.row()
            row.pop("tg_seconds")
            if row != self.expected["rows"][cell.flow]:
                bad += 1
        return bad

    def sweep_ok(self, points: list) -> bool:
        def triples(pts: list) -> list:
            return sorted([p.execution_time, round(p.hardware_mm2, 9),
                           round(p.quality, 9)] for p in pts)
        return (triples(points) == self.expected["points"]
                and triples(self._front(points)) == self.expected["front"])


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up seconds over fresh interpreters (no warm imports)."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, check=True, capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


class HostClock:
    """Wall time rescaled to a reference host speed.

    The shared hosts this runs on change speed by tens of percent from
    one half-minute to the next, more than a change to the program
    moves.  :meth:`now` times a fixed probe loop and scales the wall time
    since the previous probe (probes excluded) by the reference probe
    time over the mean of the two probes around it, so a difference of
    two readings is seconds at the reference speed.
    """

    def __init__(self) -> None:
        self._data = list(range(PROBE_LIST))
        self._elapsed = 0.0
        self._probe_s = self._probe()
        self._since = perf_counter()

    def _probe(self) -> float:
        data, size = self._data, len(self._data)
        start = perf_counter()
        index = acc = 0
        for _ in range(PROBE_STEPS):
            index = (index * 1103515245 + 12345) % size
            acc ^= data[index]
            data[index] = acc & 0xFFFF
        return perf_counter() - start

    def now(self) -> float:
        wall = perf_counter() - self._since
        probe_s = self._probe()
        self._elapsed += wall * 2 * REFERENCE_PROBE_S / (self._probe_s
                                                         + probe_s)
        self._probe_s = probe_s
        self._since = perf_counter()
        return self._elapsed


def run(bench: Bench, seconds: float, trace: bool) -> tuple[dict, int, int]:
    """Repeat rounds for ``seconds``; (per-round medians, attempted, failed).

    Untraced, the clock also probes the host around every cell and
    sweep point, so the times follow its speed closely; ``cell_ms`` is
    then the cells' whole time.  Traced, the layers are timed in wall
    time and scaled by their segment's (grid or sweep) host speed.
    """
    from tracing import LAYERS, PROBED, Tracer

    host = HostClock()
    tracer = Tracer() if trace else Tracer(clock=host.now)
    tracer.install(LAYERS if trace else PROBED)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    rounds: list[dict] = []
    attempted = failed = 0
    started = perf_counter()
    try:
        while len(rounds) < MIN_ROUNDS or perf_counter() - started < seconds:
            journal_path = workdir / f"grid-{len(rounds)}.jsonl"
            sample: dict[str, float] = defaultdict(float)
            for segment, call in (("grid", lambda: bench.grid(journal_path)),
                                  ("sweep", bench.sweep)):
                tracer.reset()
                start, wall_start = host.now(), perf_counter()
                result = call()
                wall = perf_counter() - wall_start
                sample[segment + "_ms"] = (host.now() - start) * 1e3
                if segment == "grid":
                    cells, journaled = result
                    sample["cell_ms"] = (tracer.self_s["cell"] * 1e3
                                         / tracer.counts["cell_calls"])
                else:
                    points = result
                if trace:
                    scale = sample[segment + "_ms"] / wall
                    for layer in LAYER_TIMES:
                        sample[layer + "_ms"] += tracer.self_s[
                            layer.removesuffix("_self")] * scale
                    for name in LAYER_COUNTS:
                        sample[name] += tracer.counts[name]
            attempted += len(cells) + 1
            failed += bench.bad_cells(cells, journaled)
            failed += 0 if bench.sweep_ok(points) else 1
            rounds.append(sample)
    finally:
        tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)
    medians = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0]}
    return medians, attempted, failed


def _unit(name: str) -> str:
    for suffix in ("ms", "s"):
        if name.endswith("_" + suffix):
            return suffix
    return "count"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()

    if args.setup_only:
        host = HostClock()
        start = host.now()
        Bench(args.workload, args.seed)
        print(host.now() - start)
        return 0
    # One CPU for the probes and the work they calibrate: CPUs of a
    # shared host slow down independently.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    bench = Bench(args.workload, args.seed)

    medians, attempted, failed = run(bench, args.seconds, bool(args.trace))
    if args.trace:
        names = [layer + "_ms" for layer in LAYER_TIMES] + list(LAYER_COUNTS)
    else:
        medians["setup_s"] = measure_setup(args.workload, args.seed)
        names = ["grid_ms", "cell_ms", "sweep_ms", "setup_s"]
    metrics = {}
    for name in names:
        unit = _unit(name)
        value = medians[name]
        metrics[name] = {"value": round(value) if unit == "count" else value,
                         "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

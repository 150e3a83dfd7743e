"""Pinned static timing reports.

The timing engine turns a gate netlist into per-endpoint arrivals,
required times, slacks and logic levels, plus the K worst paths.  A
change to how it walks the netlist must not move one of those numbers.
These digests pin every timing field of the report for each registered
benchmark, for the unmerged default design and the synthesised one, at
4 and 8 bits, with and without sequential-constant seeding:

* per endpoint: name, kind, gid, arrival, required, slack, levels,
  analysed and skip reason;
* the 4 worst paths, gate by gate;
* WNS, TNS, the violation and unconstrained counts, the period, the
  chain allowance, the library problems and ``ok``.

To regenerate after an intended change of the timing model, run::

    PYTHONPATH=src python tests/test_timing_pin.py

and paste its output over the table below.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from repro.analysis.timing import analyze_timing
from repro.bench import load, names
from repro.cost import CostModel
from repro.etpn.from_dfg import default_design
from repro.gates import GateNetlist, expand_to_gates
from repro.rtl import generate_rtl
from repro.synth import run_ours

#: sha256 (first 16 hex digits) of each (benchmark, flow, bits,
#: sequential_constants) timing report.
REPORT_DIGESTS: dict[tuple[str, str, int, bool], str] = {
    ('ar', 'default', 4, False): 'ea5bfde6dc8b5a12',
    ('ar', 'default', 4, True): 'ea5bfde6dc8b5a12',
    ('ar', 'default', 8, False): 'ea2635d457509d97',
    ('ar', 'default', 8, True): 'ea2635d457509d97',
    ('ar', 'ours', 4, False): '794ead4047d46269',
    ('ar', 'ours', 4, True): '794ead4047d46269',
    ('ar', 'ours', 8, False): 'cd901e3b844288ec',
    ('ar', 'ours', 8, True): 'cd901e3b844288ec',
    ('dct', 'default', 4, False): 'ae7dab1b6cd1a8db',
    ('dct', 'default', 4, True): 'ae7dab1b6cd1a8db',
    ('dct', 'default', 8, False): '4feedc795754c4e5',
    ('dct', 'default', 8, True): '4feedc795754c4e5',
    ('dct', 'ours', 4, False): '6ce624620e169d70',
    ('dct', 'ours', 4, True): '6ce624620e169d70',
    ('dct', 'ours', 8, False): 'c45f585f35c8c49f',
    ('dct', 'ours', 8, True): 'c45f585f35c8c49f',
    ('diffeq', 'default', 4, False): '1257079422fc6026',
    ('diffeq', 'default', 4, True): '1257079422fc6026',
    ('diffeq', 'default', 8, False): '178510035902cd62',
    ('diffeq', 'default', 8, True): '178510035902cd62',
    ('diffeq', 'ours', 4, False): '7736950a3341f98f',
    ('diffeq', 'ours', 4, True): '7736950a3341f98f',
    ('diffeq', 'ours', 8, False): 'e62676c08c56d547',
    ('diffeq', 'ours', 8, True): 'e62676c08c56d547',
    ('ewf', 'default', 4, False): '481bb0ec726cc344',
    ('ewf', 'default', 4, True): '481bb0ec726cc344',
    ('ewf', 'default', 8, False): '83e55e554694ac3e',
    ('ewf', 'default', 8, True): '83e55e554694ac3e',
    ('ewf', 'ours', 4, False): '5d32a660ed37d07f',
    ('ewf', 'ours', 4, True): '5d32a660ed37d07f',
    ('ewf', 'ours', 8, False): '29f74eb3fd47b64e',
    ('ewf', 'ours', 8, True): '29f74eb3fd47b64e',
    ('ex', 'default', 4, False): '7244a8cc115ba1d2',
    ('ex', 'default', 4, True): '7244a8cc115ba1d2',
    ('ex', 'default', 8, False): '71a5836ba8eb3de7',
    ('ex', 'default', 8, True): '71a5836ba8eb3de7',
    ('ex', 'ours', 4, False): '15a71bd231cab7ba',
    ('ex', 'ours', 4, True): '15a71bd231cab7ba',
    ('ex', 'ours', 8, False): 'a7e3abe91d750e2c',
    ('ex', 'ours', 8, True): 'a7e3abe91d750e2c',
    ('fir8', 'default', 4, False): '4438db797a06a47e',
    ('fir8', 'default', 4, True): '4438db797a06a47e',
    ('fir8', 'default', 8, False): '7913c48e81c78d7b',
    ('fir8', 'default', 8, True): '7913c48e81c78d7b',
    ('fir8', 'ours', 4, False): 'ab2936d9193b777a',
    ('fir8', 'ours', 4, True): 'ab2936d9193b777a',
    ('fir8', 'ours', 8, False): 'd8d9cac2ad04f5d7',
    ('fir8', 'ours', 8, True): 'd8d9cac2ad04f5d7',
    ('iir', 'default', 4, False): 'd4db245422eeb6c8',
    ('iir', 'default', 4, True): 'd4db245422eeb6c8',
    ('iir', 'default', 8, False): '6c48c003aabeea28',
    ('iir', 'default', 8, True): '6c48c003aabeea28',
    ('iir', 'ours', 4, False): '92199e8f02d87e5e',
    ('iir', 'ours', 4, True): '92199e8f02d87e5e',
    ('iir', 'ours', 8, False): 'f4f021e0d418c87c',
    ('iir', 'ours', 8, True): 'f4f021e0d418c87c',
    ('paulin', 'default', 4, False): '8c2c2f942487c58f',
    ('paulin', 'default', 4, True): '8c2c2f942487c58f',
    ('paulin', 'default', 8, False): '459bf10247febbaf',
    ('paulin', 'default', 8, True): '459bf10247febbaf',
    ('paulin', 'ours', 4, False): '9343c0f8fcee6207',
    ('paulin', 'ours', 4, True): '9343c0f8fcee6207',
    ('paulin', 'ours', 8, False): '33f67c4dce8f41f3',
    ('paulin', 'ours', 8, True): '33f67c4dce8f41f3',
    ('tseng', 'default', 4, False): 'a77f2b482de6b8f9',
    ('tseng', 'default', 4, True): 'a77f2b482de6b8f9',
    ('tseng', 'default', 8, False): '879a46329f13fe03',
    ('tseng', 'default', 8, True): '879a46329f13fe03',
    ('tseng', 'ours', 4, False): 'e63ae152bf58d250',
    ('tseng', 'ours', 4, True): 'e63ae152bf58d250',
    ('tseng', 'ours', 8, False): '0e5569c55ae807f1',
    ('tseng', 'ours', 8, True): '0e5569c55ae807f1',
}

FLOWS = ("default", "ours")
WIDTHS = (4, 8)


@lru_cache(maxsize=None)
def _netlist(benchmark: str, flow: str, bits: int) -> GateNetlist:
    """The gate netlist ``repro-hlts timing`` analyses for one target."""
    dfg = load(benchmark)
    design = (default_design(dfg) if flow == "default" else
              run_ours(dfg, cost_model=CostModel(bits=bits)).design)
    return expand_to_gates(generate_rtl(design, bits))


def report_digest(benchmark: str, flow: str, bits: int,
                  sequential_constants: bool) -> str:
    """Digest of every timing field of one analysis."""
    report = analyze_timing(_netlist(benchmark, flow, bits), bits=bits,
                            k_paths=4,
                            sequential_constants=sequential_constants)
    lines = [f"period={report.period!r}|chain={report.chain_allowance!r}|"
             f"wns={report.wns()!r}|tns={report.tns()!r}|"
             f"violations={len(report.violations())}|"
             f"unconstrained={len(report.unconstrained())}|"
             f"library={report.library_problems!r}|ok={report.ok}"]
    lines += [f"{e.name}|{e.kind}|{e.gid}|{e.arrival!r}|{e.required!r}|"
              f"{e.slack!r}|{e.levels}|{e.analysed}|{e.skip_reason}"
              for e in report.endpoints]
    for path in report.paths:
        lines.append(f"path {path.endpoint}|{path.arrival!r}|"
                     f"{path.slack!r}")
        lines += [f"  {s.gid}|{s.gtype}|{s.name}|{s.arrival!r}"
                  for s in path.steps]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def _ids(case: tuple[str, str, int, bool]) -> str:
    benchmark, flow, bits, seeded = case
    return f"{benchmark}-{flow}-{bits}" + ("-seq" if seeded else "")


def test_every_case_is_pinned():
    assert set(REPORT_DIGESTS) == {(b, f, w, s) for b in names()
                                   for f in FLOWS for w in WIDTHS
                                   for s in (False, True)}


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS), ids=_ids)
def test_timing_report(case):
    assert report_digest(*case) == REPORT_DIGESTS[case]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("REPORT_DIGESTS: dict[tuple[str, str, int, bool], str] = {")
    for benchmark in names():
        for flow in FLOWS:
            for bits in WIDTHS:
                for seeded in (False, True):
                    digest = report_digest(benchmark, flow, bits, seeded)
                    print(f"    ({benchmark!r}, {flow!r}, {bits}, "
                          f"{seeded}): {digest!r},")
    print("}")

"""Pinned merger histories and explore sweeps.

Algorithm 1 prices every candidate merger with ΔE and ΔH and keeps the
cheapest ΔC, so a change anywhere under the cost model (floorplanner,
lifetimes, rescheduling, pricing) that moves one float can flip a
decision.  These digests pin the complete merger history of every
registered benchmark at the paper's (k, α, β) for each width — kind,
kept, absorbed, order and the ``repr`` of ΔE, ΔH and ΔC — plus the
final H, and every point of five default-grid ``explore`` sweeps.

To regenerate after an intended change of decisions, run::

    PYTHONPATH=src python tests/test_synth_pin.py

and paste its output over the tables below.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.bench import load, names
from repro.cost import CostModel
from repro.harness.experiment import synthesize_flow_result
from repro.synth.explore import explore

#: sha256 (first 16 hex digits) of each (benchmark, bits) merger history.
HISTORY_DIGESTS: dict[tuple[str, int], str] = {
    ('ar', 4): '16dae01c0d8f1460',
    ('ar', 8): '44e9923783140a25',
    ('ar', 16): '6f3a47b6b74a4a3b',
    ('dct', 4): 'fa4a3cae28f52334',
    ('dct', 8): 'b63c9f33d5bf1dcb',
    ('dct', 16): '6bce4a83ed65a59d',
    ('diffeq', 4): '19215083fb7b4a20',
    ('diffeq', 8): '054e83bc54e26813',
    ('diffeq', 16): '58f11d2546dc693b',
    ('ewf', 4): 'f9dcf0be95adea45',
    ('ewf', 8): 'fd33bade37ee2c18',
    ('ewf', 16): 'a7cd3fe0f66cd312',
    ('ex', 4): '41518b271899b94a',
    ('ex', 8): 'f217cfbe80a79424',
    ('ex', 16): '29ec27f7d093c98d',
    ('fir8', 4): '390b8be9215bbff1',
    ('fir8', 8): 'df2eda51e7ee66bd',
    ('fir8', 16): '700defd95616bf96',
    ('iir', 4): '9d0468b2e64fb35e',
    ('iir', 8): '7af14ae45414877e',
    ('iir', 16): '999381401d9ee9e4',
    ('paulin', 4): '2026a764f94e6d0c',
    ('paulin', 8): '5c18f7c34b7abb46',
    ('paulin', 16): '47164220bd629b58',
    ('tseng', 4): '8f56b3d1b0ccba3c',
    ('tseng', 8): '9a7443f9ed4303e3',
    ('tseng', 16): '6616619e14fc4622',
}

#: sha256 (first 16 hex digits) of each default-grid sweep.
SWEEP_DIGESTS: dict[tuple[str, int], str] = {
    ('ex', 4): '33eeb6a08b672f13',
    ('ar', 8): '04433646d6fad12c',
    ('dct', 8): '18f3da36abd30a46',
    ('diffeq', 8): '9070a276e021682d',
    ('fir8', 4): 'faf728e5952e7783',
}

def _digest(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


def history_digest(benchmark: str, bits: int) -> str:
    """Digest of the ``ours`` merger history and final H."""
    result = synthesize_flow_result(benchmark, "ours", bits)
    lines = [f"{r.iteration}|{r.kind}|{r.kept}|{r.absorbed}|"
             f"{','.join(r.order)}|{r.delta_e!r}|{r.delta_h!r}|"
             f"{r.delta_c!r}" for r in result.history]
    final_h = CostModel(bits=bits).hardware_total(result.design.datapath)
    lines.append(f"H={final_h!r}")
    return _digest(lines)


def sweep_digest(benchmark: str, bits: int) -> str:
    """Digest of every distinct design point of the default sweep."""
    lines = []
    for point in explore(load(benchmark), CostModel(bits=bits)):
        design = point.design
        lines.append(
            f"{point.params!r}|{point.execution_time}|"
            f"{point.hardware_mm2!r}|{point.quality!r}|"
            f"{sorted(design.steps.items())}|"
            f"{sorted(design.binding.module_of.items())}|"
            f"{sorted(design.binding.register_of.items())}")
    return _digest(lines)


def _ids(case: tuple[str, int]) -> str:
    return f"{case[0]}-{case[1]}"


def test_every_benchmark_and_width_is_pinned():
    assert set(HISTORY_DIGESTS) == {(b, w) for b in names()
                                    for w in (4, 8, 16)}


@pytest.mark.parametrize("case", sorted(HISTORY_DIGESTS), ids=_ids)
def test_merger_history(case):
    assert history_digest(*case) == HISTORY_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(SWEEP_DIGESTS), ids=_ids)
def test_explore_sweep(case):
    assert sweep_digest(*case) == SWEEP_DIGESTS[case]


if __name__ == "__main__":  # pragma: no cover - regeneration helper
    print("HISTORY_DIGESTS = {")
    for benchmark in names():
        for bits in (4, 8, 16):
            print(f"    ({benchmark!r}, {bits}): "
                  f"{history_digest(benchmark, bits)!r},")
    print("}")
    print("SWEEP_DIGESTS = {")
    for benchmark, bits in SWEEP_DIGESTS:
        print(f"    ({benchmark!r}, {bits}): "
              f"{sweep_digest(benchmark, bits)!r},")
    print("}")

"""One ``explore`` sweep shares Algorithm 1's per-design work.

The grid points of a sweep share one :class:`MergerMemo`: a design that
several points reach is ranked once, and each (design, candidate pair)
is evaluated once.  These tests check that every point still takes the
decisions of a standalone run, that the sharing really happens, that a
candidate whose evaluation raises is skipped by every point that
reaches it, and that each data path is priced once.
"""

from __future__ import annotations

import importlib

import pytest

from repro.bench import load
from repro.cost import CostModel
from repro.etpn.from_dfg import default_design
from repro.synth.algorithm import MergerMemo, SynthesisParams, synthesize
from repro.synth.explore import DEFAULT_GRID

# Modules, not the package's same-named functions.
algorithm_module = importlib.import_module("repro.synth.algorithm")
explore_module = importlib.import_module("repro.synth.explore")

SWEEPS = [("ex", 4), ("ar", 8)]


def _decisions(result) -> tuple:
    """Everything a run decided, floats by ``repr``."""
    return ([repr(record) for record in result.history],
            [record.order for record in result.history],
            result.skipped, result.degraded, result.degradation_reasons,
            result.params, result.design.label, result.design.signature)


def _counting_try_merge(monkeypatch) -> list[tuple]:
    """Record (design signature, kind, node_a, node_b) per evaluation."""
    calls: list[tuple] = []
    real = algorithm_module.try_merge

    def counting(design, kind, node_a, node_b, *args, **kwargs):
        calls.append((design.signature, kind, node_a, node_b))
        return real(design, kind, node_a, node_b, *args, **kwargs)

    monkeypatch.setattr(algorithm_module, "try_merge", counting)
    return calls


@pytest.mark.parametrize("order", ["grid", "reversed"])
@pytest.mark.parametrize("name,bits", SWEEPS,
                         ids=[f"{n}@{w}" for n, w in SWEEPS])
def test_shared_memo_takes_the_standalone_decisions(name, bits, order,
                                                    monkeypatch):
    calls = _counting_try_merge(monkeypatch)
    dfg = load(name)
    cost_model = CostModel(bits=bits)
    memo = MergerMemo(dfg, cost_model)
    grid = DEFAULT_GRID if order == "grid" else DEFAULT_GRID[::-1]
    shared_calls = alone_calls = 0
    for k, alpha, beta in grid:
        params = SynthesisParams(k=k, alpha=alpha, beta=beta)
        before = len(calls)
        shared = synthesize(dfg, params, cost_model, "ours", None, memo)
        middle = len(calls)
        alone = synthesize(dfg, params, CostModel(bits=bits))
        shared_calls += middle - before
        alone_calls += len(calls) - middle
        assert _decisions(shared) == _decisions(alone), (k, alpha, beta)
    assert 0 < shared_calls < alone_calls


def test_rankings_are_kept_per_selection_and_order_strategy():
    dfg, cost_model = load("ex"), CostModel(bits=4)
    memo = MergerMemo(dfg, cost_model)
    for selection in ("balance", "connectivity"):
        for strategy in ("enhance", "first"):
            params = SynthesisParams(selection=selection,
                                     order_strategy=strategy)
            shared = synthesize(dfg, params, cost_model, "ours", None, memo)
            alone = synthesize(dfg, params, CostModel(bits=4))
            assert _decisions(shared) == _decisions(alone), params
    assert len({key[1:] for key in memo.designs}) == 4


def test_one_sweep_evaluates_each_design_pair_once(monkeypatch):
    calls = _counting_try_merge(monkeypatch)
    priced: list = []
    real_hardware = CostModel.hardware

    def counting_hardware(self, datapath):
        priced.append(datapath)   # kept alive, so ids stay unique
        return real_hardware(self, datapath)

    monkeypatch.setattr(CostModel, "hardware", counting_hardware)
    dfg, cost_model = load("ex"), CostModel(bits=4)
    assert explore_module.explore(dfg, cost_model)
    assert priced and len({id(d) for d in priced}) == len(priced)

    # The sweep evaluates what the standalone runs evaluate, each once.
    swept = list(calls)
    del calls[:]
    for k, alpha, beta in DEFAULT_GRID:
        synthesize(dfg, SynthesisParams(k=k, alpha=alpha, beta=beta),
                   CostModel(bits=4))
    assert set(swept) == set(calls)
    assert len(swept) == len(set(calls)) < len(calls)


def test_a_raising_candidate_is_skipped_by_every_point(monkeypatch):
    dfg, bits = load("ex"), 4
    start = default_design(dfg, label="ours")
    top = algorithm_module._rank(start, "balance")[0]
    real = algorithm_module.try_merge
    raised: list[tuple] = []

    def broken(design, kind, node_a, node_b, *args, **kwargs):
        if (design.signature == start.signature
                and (kind, node_a, node_b)
                == (top.kind, top.node_a, top.node_b)):
            raised.append((kind, node_a, node_b))
            raise RuntimeError("stub failure")
        return real(design, kind, node_a, node_b, *args, **kwargs)

    monkeypatch.setattr(algorithm_module, "try_merge", broken)
    alone = {point: synthesize(dfg, SynthesisParams(*point),
                               CostModel(bits=bits))
             for point in DEFAULT_GRID}
    assert len(raised) == len(DEFAULT_GRID)
    del raised[:]
    cost_model = CostModel(bits=bits)
    memo = MergerMemo(dfg, cost_model)
    for point in DEFAULT_GRID:
        shared = synthesize(dfg, SynthesisParams(*point), cost_model,
                            "ours", None, memo)
        assert shared.skipped[0].reason == "RuntimeError: stub failure"
        assert _decisions(shared) == _decisions(alone[point])
    assert raised == [(top.kind, top.node_a, top.node_b)] * len(DEFAULT_GRID)


def test_memo_serves_one_dfg_and_one_cost_model():
    dfg, cost_model = load("ex"), CostModel(bits=4)
    memo = MergerMemo(dfg, cost_model)
    with pytest.raises(ValueError, match="MergerMemo"):
        synthesize(load("ex"), None, cost_model, "ours", None, memo)
    with pytest.raises(ValueError, match="MergerMemo"):
        synthesize(dfg, None, CostModel(bits=8), "ours", None, memo)
    assert synthesize(dfg, None, CostModel(bits=4), memo=memo).history

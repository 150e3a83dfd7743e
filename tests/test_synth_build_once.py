"""Algorithm 1 keeps what it derives once, and nothing longer than it
is needed.

* A :class:`MergerMemo` keeps outcomes without their designs: after a
  sweep no :class:`Design` or :class:`DataPath` is reachable from it.
* A data path and its testability fixpoint form no reference cycle, so
  a sweep leaves no data path to the cycle collector.
* A :class:`Binding` serves its kept groupings only while its maps are
  unchanged, however they are changed.
"""

from __future__ import annotations

import gc
import importlib
import types
import weakref

import pytest

from repro.alloc import Binding
from repro.bench import load
from repro.cost import CostModel
from repro.etpn import DataPath, default_design
from repro.etpn.design import Design
from repro.synth.algorithm import MergerMemo
from repro.testability import analyze

explore_module = importlib.import_module("repro.synth.explore")


def _reachable(root):
    """Every object reachable from ``root`` through containers and
    instances (not through types, modules or functions)."""
    skip = (type, types.ModuleType, types.FunctionType, str, int, float)
    seen: set[int] = set()
    stack = [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, skip):
            continue
        seen.add(id(obj))
        yield obj
        stack.extend(gc.get_referents(obj))


def test_memo_holds_no_design_or_data_path_after_a_sweep(monkeypatch):
    memos: list[MergerMemo] = []

    class Recorded(MergerMemo):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, **kwargs)
            memos.append(self)

    monkeypatch.setattr(explore_module, "MergerMemo", Recorded)
    assert explore_module.explore(load("ex"), CostModel(bits=4))
    (memo,) = memos
    kept = [outcome for _, outcomes in memo.designs.values()
            for outcome in outcomes.values() if outcome is not None]
    assert kept and all(outcome.area is not None for outcome in kept)
    held = list(_reachable(memo))
    assert not [obj for obj in held if isinstance(obj, (Design, DataPath))]


def test_a_sweep_leaves_no_data_path_to_the_cycle_collector():
    gc.collect()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        explore_module.explore(load("ex"), CostModel(bits=4))
        gc.collect()
        garbage = [obj for obj in gc.garbage if isinstance(obj, DataPath)]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
    assert garbage == []


def test_an_analysed_data_path_is_freed_by_reference_counting():
    datapath = default_design(load("ex")).datapath
    analysis = analyze(datapath)
    assert analyze(datapath).fixpoint is analysis.fixpoint
    assert datapath not in gc.get_referents(analysis.fixpoint)
    freed = []
    gc.disable()
    try:
        ref = weakref.ref(datapath, freed.append)
        del datapath, analysis
        assert ref() is None and freed
    finally:
        gc.enable()


@pytest.mark.parametrize("mutate", [
    lambda b: b.module_of.__setitem__("N2", "M_N1"),
    lambda b: b.module_of.update(N2="M_N1"),
    lambda b: b.module_of.pop("N2"),
    lambda b: setattr(b, "module_of", {**b.module_of, "N2": "M_N1"}),
], ids=["setitem", "update", "pop", "rebind"])
def test_a_mutated_binding_never_serves_a_stale_grouping(chain_dfg, mutate):
    binding = _binding(chain_dfg)
    before = binding.modules()
    assert binding.module_groups()["M_N2"] == ("N2",)
    copy = binding.copy()
    mutate(binding)
    fresh = Binding(dict(binding.module_of), dict(binding.register_of))
    assert binding.modules() == fresh.modules() != before
    assert dict(binding.module_groups()) == dict(fresh.module_groups())
    assert binding.module_count() == fresh.module_count()
    assert binding.ops_on("M_N1") == fresh.ops_on("M_N1")
    # A copy taken before the change keeps its own grouping.
    assert copy.modules() == before


def test_register_groupings_follow_mutation_and_merges(chain_dfg):
    binding = _binding(chain_dfg)
    merged = binding.merge_registers("R_a", "R_y")
    assert merged.registers()["R_a"] == ["a", "y"]
    merged.register_of["y"] = "R_y"
    assert "R_y" in merged.registers()
    assert merged.registers()["R_a"] == ["a"]
    # The binding merged from is untouched.
    assert binding.registers()["R_y"] == ["y"]


def test_groupings_are_read_only(chain_dfg):
    binding = _binding(chain_dfg)
    with pytest.raises(TypeError):
        binding.module_groups()["M_N1"] = ("N2",)  # type: ignore[index]
    binding.modules()["M_N1"].append("N2")  # a copy
    assert binding.modules()["M_N1"] == ["N1"]


def _binding(dfg) -> Binding:
    return default_design(dfg).binding

"""The three comparison flows of the paper's §5.

* **CAMAD** — no testability consideration: ASAP schedule, then
  connectivity/closeness allocation for both modules and registers
  (minimise interconnect, the conventional behaviour §3 criticises).
* **Approach 1** — force-directed scheduling (no testability), followed
  by the same allocation algorithm as Approach 2.
* **Approach 2** — Lee's mobility-path scheduling (testability-aware),
  followed by the modified left-edge allocation.

All three return a validated :class:`~repro.etpn.design.Design`, so the
harness pushes every flow through the identical RTL→gates→ATPG path.
"""

from __future__ import annotations

from ..alloc import (Binding, connectivity_module_binding,
                     min_module_binding, testability_left_edge)
from ..cost import CostModel
from ..dfg import DFG, variable_lifetimes
from ..dfg.analysis import asap_steps
from ..etpn.design import Design
from ..sched import fds_schedule, mobility_path_schedule
from .algorithm import SynthesisParams, synthesize
from .result import SynthesisResult


def _design(dfg: DFG, steps: dict[str, int], module_of: dict[str, str],
            register_of: dict[str, str], label: str) -> Design:
    design = Design(dfg, steps, Binding(module_of, register_of), label=label)
    design.validate()
    return design


def run_camad(dfg: DFG) -> SynthesisResult:
    """The CAMAD baseline: connectivity-driven, testability-blind.

    The paper's CAMAD rows (Tables 1-3) share functional modules by
    connectivity but keep one register per variable (e.g. twelve
    dedicated registers and only four muxes for Ex).
    """
    steps = asap_steps(dfg)
    module_of = connectivity_module_binding(dfg, steps)
    register_of = {name: f"R_{name}" for name, var in
                   sorted(dfg.variables.items()) if var.needs_register()}
    design = _design(dfg, steps, module_of, register_of, "camad")
    return SynthesisResult(design, params={"flow": "camad"})


def run_approach1(dfg: DFG) -> SynthesisResult:
    """Approach 1: FDS scheduling + modified left-edge allocation."""
    steps = fds_schedule(dfg)
    module_of = min_module_binding(dfg, steps)
    lifetimes = variable_lifetimes(dfg, steps)
    register_of = testability_left_edge(dfg, lifetimes)
    design = _design(dfg, steps, module_of, register_of, "approach1")
    return SynthesisResult(design, params={"flow": "approach1"})


def run_approach2(dfg: DFG) -> SynthesisResult:
    """Approach 2: mobility-path scheduling + modified left-edge."""
    steps = mobility_path_schedule(dfg)
    module_of = min_module_binding(dfg, steps)
    lifetimes = variable_lifetimes(dfg, steps)
    register_of = testability_left_edge(dfg, lifetimes)
    design = _design(dfg, steps, module_of, register_of, "approach2")
    return SynthesisResult(design, params={"flow": "approach2"})


def run_ours(dfg: DFG, params: SynthesisParams | None = None,
             cost_model: CostModel | None = None,
             budget: object = None) -> SynthesisResult:
    """The paper's integrated algorithm (Algorithm 1)."""
    return synthesize(dfg, params, cost_model, label="ours", budget=budget)


#: Flow registry used by the harness and the CLI.
FLOWS = {
    "camad": run_camad,
    "approach1": run_approach1,
    "approach2": run_approach2,
    "ours": run_ours,
}


def run_flow(name: str, dfg: DFG,
             cost_model: CostModel | None = None,
             params: SynthesisParams | None = None,
             budget: object = None) -> SynthesisResult:
    """Run one of the four §5 flows by name.

    ``params``, ``cost_model`` and ``budget`` serve the iterative flow
    (``ours``); the one-shot baselines price nothing, complete in a
    single pass and ignore them.
    """
    if name not in FLOWS:
        raise KeyError(f"unknown flow {name!r}; choose from {sorted(FLOWS)}")
    if name == "ours":
        return run_ours(dfg, params=params, cost_model=cost_model,
                        budget=budget)
    return FLOWS[name](dfg)

"""The testability analysis against the reference it was optimised from.

``ReferenceTestabilityAnalysis`` below is the original CC/SC/CO/SO
fixpoint, kept verbatim: a ``_CV`` object per value, each module's
transfer factor and each side input's controllability recomputed on
every visit, and every port's sources re-sorted on every read.  It
reads the data path only through ``nodes``, ``arcs`` and ``dfg``, via
verbatim copies of the original data-path queries.  The production
:class:`repro.testability.TestabilityAnalysis` must give ``==``-equal
node and line values and equal convergence flags on:

* the data paths of random DFGs (multiply-defined variables, loops)
  under random legal bindings, before and after a random merger;
* every analysis the merger loop makes on Ex, Dct and Diffeq at
  4 bits.
"""

from __future__ import annotations

import importlib
import random
from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.dfg import unit_class
from repro.dfg.analysis import asap_steps
from repro.etpn import DataPath
from repro.etpn.datapath import DataPathArc, NodeKind
from repro.harness.experiment import synthesize_flow_result
from repro.testability import TestabilityAnalysis as ProductionAnalysis
from repro.testability import analyze
from repro.testability.analysis import CONST_CC, CTF, OTF
from repro.testability.metrics import (LineTestability, NodeTestability,
                                       UNREACHABLE_DEPTH)

from .test_properties import dfgs
from .test_resched_oracle import (random_legal_binding, reference_modules,
                                  reference_registers)

algorithm_module = importlib.import_module("repro.synth.algorithm")

_EPS = 1e-9
_MAX_ITERATIONS = 200


@dataclass(frozen=True)
class _CV:
    """A (combinational, sequential) controllability or observability pair."""

    c: float
    s: float

    def score(self) -> float:
        return self.c / (1.0 + self.s)

    def better(self, other: "_CV") -> bool:
        return self.score() > other.score() + _EPS


_ZERO = _CV(0.0, UNREACHABLE_DEPTH)


class ReferenceDataPathView:
    """The original data-path queries over a data path's nodes and arcs."""

    def __init__(self, datapath) -> None:
        self.dfg = datapath.dfg
        self.nodes = datapath.nodes
        self.arcs = datapath.arcs
        self._outgoing: dict[str, list[DataPathArc]] = {n: [] for n in self.nodes}
        self._incoming: dict[str, list[DataPathArc]] = {n: [] for n in self.nodes}
        for arc in self.arcs:
            self._outgoing[arc.src].append(arc)
            self._incoming[arc.dst].append(arc)

    def incoming(self, node_id: str) -> list[DataPathArc]:
        """Arcs entering ``node_id``."""
        return list(self._incoming[node_id])

    def outgoing(self, node_id: str) -> list[DataPathArc]:
        """Arcs leaving ``node_id``."""
        return list(self._outgoing[node_id])

    def sources_of_port(self, node_id: str, port: int) -> list[str]:
        """Distinct sources feeding one input port of a node."""
        return sorted({a.src for a in self._incoming[node_id]
                       if a.port == port})

    def input_ports(self, node_id: str) -> list[int]:
        """Distinct input-port indices of a node."""
        return sorted({a.port for a in self._incoming[node_id]})

    def modules(self):
        """All MODULE nodes, sorted by id."""
        return self._of_kind(NodeKind.MODULE)

    def registers(self):
        """All REGISTER nodes, sorted by id."""
        return self._of_kind(NodeKind.REGISTER)

    def _of_kind(self, kind: NodeKind):
        return sorted((n for n in self.nodes.values() if n.kind == kind),
                      key=lambda n: n.node_id)


class ReferenceTestabilityAnalysis:
    """CC/SC/CO/SO values for every arc and node of a data path."""

    def __init__(self, datapath) -> None:
        self.datapath = ReferenceDataPathView(datapath)
        self._out_ctrl: dict[str, _CV] = {}
        self._arc_obs: dict[tuple[str, str, int], _CV] = {}
        self._node_obs: dict[str, _CV] = {}
        self.forward_converged = False
        self.backward_converged = False
        self._run_forward()
        self._run_backward()

    # ------------------------------------------------------------------
    # Forward: controllability
    # ------------------------------------------------------------------
    def _module_ctf(self, node_id: str) -> float:
        """Best transfer factor over the ops a module can execute."""
        node = self.datapath.nodes[node_id]
        return max(CTF[self.datapath.dfg.operation(o).kind] for o in node.ops)

    def _module_otf(self, node_id: str) -> float:
        node = self.datapath.nodes[node_id]
        return max(OTF[self.datapath.dfg.operation(o).kind] for o in node.ops)

    def _port_ctrl(self, node_id: str, port: int) -> _CV:
        """Controllability of one input port: best source wins (a mux
        lets the test choose the easiest path)."""
        best = _ZERO
        for src in self.datapath.sources_of_port(node_id, port):
            value = self._out_ctrl.get(src, _ZERO)
            if value.better(best):
                best = value
        return best

    def _run_forward(self) -> None:
        dp = self.datapath
        for node in dp.nodes.values():
            if node.kind == NodeKind.PORT_IN:
                self._out_ctrl[node.node_id] = _CV(1.0, 0.0)
            elif node.kind == NodeKind.CONST:
                self._out_ctrl[node.node_id] = _CV(CONST_CC, 0.0)
            else:
                self._out_ctrl[node.node_id] = _ZERO
        order = sorted(dp.nodes)
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for node_id in order:
                node = dp.nodes[node_id]
                if node.kind == NodeKind.REGISTER:
                    inp = self._port_ctrl(node_id, 0)
                    candidate = _CV(inp.c, min(inp.s + 1.0, UNREACHABLE_DEPTH))
                elif node.kind == NodeKind.MODULE:
                    ports = dp.input_ports(node_id)
                    if not ports:
                        continue
                    values = [self._port_ctrl(node_id, p) for p in ports]
                    cc = self._module_ctf(node_id) * min(v.c for v in values)
                    sc = max(v.s for v in values)
                    candidate = _CV(cc, sc)
                else:
                    continue
                if candidate.better(self._out_ctrl[node_id]):
                    self._out_ctrl[node_id] = candidate
                    changed = True
            if not changed:
                self.forward_converged = True
                break

    # ------------------------------------------------------------------
    # Backward: observability
    # ------------------------------------------------------------------
    def _arc_observability(self, arc: DataPathArc) -> _CV:
        dst = self.datapath.nodes[arc.dst]
        if dst.kind in (NodeKind.PORT_OUT, NodeKind.COND):
            return _CV(1.0, 0.0)
        if dst.kind == NodeKind.REGISTER:
            out = self._node_obs.get(arc.dst, _ZERO)
            return _CV(out.c, min(out.s + 1.0, UNREACHABLE_DEPTH))
        if dst.kind == NodeKind.MODULE:
            out = self._node_obs.get(arc.dst, _ZERO)
            side_cc = 1.0
            for port in self.datapath.input_ports(arc.dst):
                if port != arc.port:
                    side_cc = min(side_cc, self._port_ctrl(arc.dst, port).c)
            return _CV(self._module_otf(arc.dst) * out.c * side_cc, out.s)
        return _ZERO

    def _run_backward(self) -> None:
        dp = self.datapath
        for node_id in dp.nodes:
            self._node_obs[node_id] = _ZERO
        for _ in range(_MAX_ITERATIONS):
            changed = False
            for node_id in sorted(dp.nodes):
                best = _ZERO
                for arc in dp.outgoing(node_id):
                    value = self._arc_observability(arc)
                    if value.better(best):
                        best = value
                if best.better(self._node_obs[node_id]):
                    self._node_obs[node_id] = best
                    changed = True
            if not changed:
                self.backward_converged = True
                break
        self._arc_obs = {(a.src, a.dst, a.port): self._arc_observability(a)
                         for a in dp.arcs}

    # ------------------------------------------------------------------
    # Public accessors
    # ------------------------------------------------------------------
    def line(self, arc: DataPathArc) -> LineTestability:
        """The four measures of one arc."""
        ctrl = self._out_ctrl.get(arc.src, _ZERO)
        obs = self._arc_obs.get((arc.src, arc.dst, arc.port), _ZERO)
        return LineTestability(cc=ctrl.c, sc=ctrl.s, co=obs.c, so=obs.s)

    def node(self, node_id: str) -> NodeTestability:
        """Node-level testability (paper §3)."""
        dp = self.datapath
        kind = dp.nodes[node_id].kind
        if kind in (NodeKind.PORT_IN, NodeKind.CONST):
            ctrl = self._out_ctrl[node_id]
        else:
            incoming = dp.incoming(node_id)
            ctrl = _ZERO
            for arc in incoming:
                value = self._out_ctrl.get(arc.src, _ZERO)
                if value.better(ctrl):
                    ctrl = value
        if kind in (NodeKind.PORT_OUT, NodeKind.COND):
            obs = _CV(1.0, 0.0)
        else:
            obs = self._node_obs[node_id]
        return NodeTestability(node_id, cc=ctrl.c, sc=ctrl.s,
                               co=obs.c, so=obs.s)

    def all_nodes(self) -> dict[str, NodeTestability]:
        """Node testability for every data-path node."""
        return {node_id: self.node(node_id) for node_id in self.datapath.nodes}

    def design_quality(self) -> float:
        """Mean worst-dimension score over modules and registers."""
        interesting = [n.node_id for n in self.datapath.modules()
                       + self.datapath.registers()]
        if not interesting:
            return 0.0
        return sum(self.node(n).quality for n in interesting) / len(interesting)


def same_analysis(analysis, datapath) -> bool:
    """Equal node and line values and flags as the reference's."""
    expected = ReferenceTestabilityAnalysis(datapath)
    return (analysis.all_nodes() == expected.all_nodes()
            and [analysis.line(a) for a in datapath.arcs]
            == [expected.line(a) for a in datapath.arcs]
            and analysis.forward_converged == expected.forward_converged
            and analysis.backward_converged == expected.backward_converged
            and analysis.design_quality() == expected.design_quality())


@st.composite
def bound_datapaths(draw):
    """A random bound DFG's data path, maybe after a random merger."""
    dfg = draw(dfgs(looped=draw(st.booleans())))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    binding = random_legal_binding(dfg, asap_steps(dfg), rng)
    groups = reference_modules(binding)
    classes = {m: unit_class(dfg.operation(ops[0]).kind)
               for m, ops in groups.items()}
    pairs = [("module", a, b) for a in groups for b in groups
             if a < b and classes[a] == classes[b]]
    registers = reference_registers(binding)
    pairs += [("register", a, b) for a in registers for b in registers
              if a < b]
    if pairs and draw(st.booleans()):
        kind, keep, absorb = rng.choice(pairs)
        if kind == "module":
            binding = binding.merge_modules(keep, absorb)
        else:
            binding = binding.merge_registers(keep, absorb)
    return DataPath(dfg, binding)


@settings(max_examples=300, deadline=None)
@given(bound_datapaths())
def test_random_bound_datapaths(datapath):
    assert same_analysis(ProductionAnalysis(datapath), datapath)
    assert same_analysis(analyze(datapath), datapath)


@pytest.mark.parametrize("name", ["ex", "dct", "diffeq"])
def test_every_analysis_of_the_merger_loop(name, monkeypatch):
    real = algorithm_module.analyze
    checked = []

    def checking(datapath, *args, **kwargs):
        analysis = real(datapath, *args, **kwargs)
        checked.append(same_analysis(analysis, datapath))
        return analysis

    monkeypatch.setattr(algorithm_module, "analyze", checking)
    result = synthesize_flow_result(name, "ours", 4)
    assert len(checked) > len(result.history)
    assert all(checked)

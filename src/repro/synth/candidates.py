"""Candidate pair selection by the C/O balance principle (Algorithm 1,
step 6).

Every structurally-compatible pair of modules (same unit class) and
pair of registers is a potential merger; the testability analysis ranks
them so that good-C/bad-O nodes fold onto good-O/bad-C nodes, and pairs
that would create module↔register self-loops sink to the bottom (the
paper wants "as few loops as possible").
"""

from __future__ import annotations

from dataclasses import dataclass

from ..etpn.design import Design
from ..testability import TestabilityAnalysis, balance_score


@dataclass(frozen=True)
class CandidatePair:
    """One ranked merger candidate."""

    kind: str       # "module" or "register"
    node_a: str
    node_b: str


def _creates_self_loop(design: Design, a: str, b: str) -> bool:
    """Would merging ``a`` and ``b`` close a module↔register loop?

    It would when one node feeds the other through a third: for modules,
    a register one writes and the other reads; for registers, a module
    one feeds and that writes the other.  Either way an arc path
    ``a → x → b`` or ``b → x → a``.
    """
    dp = design.datapath
    return not (dp.fanout(a).isdisjoint(dp.fanin(b))
                and dp.fanout(b).isdisjoint(dp.fanin(a)))


def compatible_pairs(design: Design) -> list[CandidatePair]:
    """All structurally-compatible merger pairs of the current design."""
    from ..alloc.binding import module_unit_class

    pairs: list[CandidatePair] = []
    modules = list(design.binding.module_groups())
    classes = {m: module_unit_class(design.dfg, design.binding, m)
               for m in modules}
    for i, a in enumerate(modules):
        for b in modules[i + 1:]:
            if classes[a] == classes[b]:
                pairs.append(CandidatePair("module", a, b))
    registers = list(design.binding.register_groups())
    for i, a in enumerate(registers):
        for b in registers[i + 1:]:
            pairs.append(CandidatePair("register", a, b))
    return pairs


def rank_candidates(design: Design, analysis: TestabilityAnalysis
                    ) -> list[CandidatePair]:
    """Rank merger pairs by the C/O balance principle.

    The primary key is the merged node's balance quality (quantised so
    near-ties fall through); ties break towards the most complementary
    parents, then folds that create no self-loop, then by kind and the
    two node ids, so the order is total and deterministic.
    """
    nodes = analysis.all_nodes()

    def key(pair: CandidatePair):
        score = balance_score(nodes[pair.node_a], nodes[pair.node_b])
        quality, complement = score.key()
        loop = _creates_self_loop(design, pair.node_a, pair.node_b)
        return (-quality, -complement, loop, pair.kind, pair.node_a,
                pair.node_b)

    return sorted(compatible_pairs(design), key=key)


def rank_candidates_connectivity(design: Design) -> list[CandidatePair]:
    """Ablation ranking: conventional connectivity/closeness order.

    The §3 strawman — prefer merging the nodes that share the most
    neighbours (minimising muxes), ignoring testability.  Used by the
    A1 ablation bench to quantify what the balance principle buys.
    """
    dp = design.datapath

    def closeness(pair: CandidatePair) -> int:
        def neighbours(node: str) -> frozenset[str]:
            return dp.fanin(node) | dp.fanout(node)
        return len(neighbours(pair.node_a) & neighbours(pair.node_b))

    return sorted(compatible_pairs(design),
                  key=lambda p: (-closeness(p), p.kind, p.node_a, p.node_b))

"""The controllability/observability balance allocation principle (§3).

Conventional allocation merges nodes by connectivity, which tends to
fold good-C/bad-O nodes together (both near the inputs) and good-O/bad-C
nodes together (both near the outputs), producing data paths full of
nodes that are hard to control *or* hard to observe, plus many loops.

The balance principle instead folds a node with good controllability
and bad observability onto a node with good observability and bad
controllability: the merged node inherits the best controllability of
one parent (best input line) and the best observability of the other
(best output line).
"""

from __future__ import annotations

from dataclasses import dataclass

from .metrics import NodeTestability


@dataclass(frozen=True)
class BalanceScore:
    """How attractive merging two nodes is, per the balance principle.

    Attributes:
        merged_quality: worst-dimension score of the merged node (it
            inherits max C and max O of the parents); the primary key.
        complementarity: how opposite the parents' imbalances are; used
            as a tie-breaker so C-heavy nodes prefer O-heavy partners.
    """

    merged_quality: float
    complementarity: float

    def key(self) -> tuple[float, float]:
        """Sort key: larger is better."""
        return (self.merged_quality, self.complementarity)


def merged_testability(a: NodeTestability, b: NodeTestability) -> tuple[float, float]:
    """(c_score, o_score) the merged node inherits from its parents."""
    return (max(a.c_score, b.c_score), max(a.o_score, b.o_score))


def balance_score(a: NodeTestability, b: NodeTestability) -> BalanceScore:
    """Score a candidate merger pair.

    ``merged_quality`` is what the new node's worst dimension will look
    like; ``complementarity`` is positive exactly when one parent is
    C-dominant and the other O-dominant (the fold the paper wants) and
    negative when both lean the same way (the fold it avoids).
    """
    merged_c, merged_o = merged_testability(a, b)
    return BalanceScore(
        merged_quality=min(merged_c, merged_o),
        complementarity=-(a.imbalance * b.imbalance),
    )

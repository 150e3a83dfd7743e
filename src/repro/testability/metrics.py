"""Testability metric containers (paper §2).

The metric has four measures per data-path line: combinational
controllability (CC), sequential controllability (SC), combinational
observability (CO) and sequential observability (SO).  CC/CO are in
``[0, 1]`` (1 = free, 0 = impossible); SC/SO count the sequential
effort — essentially how many register stages a test generator must
drive through (time frames) to set or observe the line.
"""

from __future__ import annotations

from dataclasses import dataclass

#: Sequential cost assigned to unreachable lines.
UNREACHABLE_DEPTH = 1_000.0


@dataclass(frozen=True)
class LineTestability:
    """The four measures of one data-path line (arc)."""

    cc: float = 0.0
    sc: float = UNREACHABLE_DEPTH
    co: float = 0.0
    so: float = UNREACHABLE_DEPTH


@dataclass(frozen=True)
class NodeTestability:
    """Node-level C/O per the paper §3.

    The controllability of a node is the *best* controllability of any
    of its input lines; the observability is the best observability of
    any of its output lines.
    """

    node_id: str
    cc: float
    sc: float
    co: float
    so: float

    @property
    def c_score(self) -> float:
        """Scalar controllability of the node."""
        return self.cc / (1.0 + self.sc)

    @property
    def o_score(self) -> float:
        """Scalar observability of the node."""
        return self.co / (1.0 + self.so)

    @property
    def imbalance(self) -> float:
        """Positive when the node is easier to control than observe."""
        return self.c_score - self.o_score

    @property
    def quality(self) -> float:
        """Worst-dimension score; the balance principle maximises this."""
        return min(self.c_score, self.o_score)

    def __str__(self) -> str:  # pragma: no cover - debug helper
        return (f"{self.node_id}: CC={self.cc:.3f} SC={self.sc:.1f} "
                f"CO={self.co:.3f} SO={self.so:.1f}")

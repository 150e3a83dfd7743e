"""Critical-path extraction from the reachability graph (paper §4.2).

The minimum execution time ``E`` of a design is the length of its
critical path: the longest timed firing sequence from the initial
marking, where entering a marking costs the delays of the places it
newly marks, a sequence stops at a final marking, at a marking with no
safe firing or where it re-enters a marking already on it (so ``E`` of
a looping control part is its per-iteration critical path, the
quantity mergers may lengthen), and sequences that reach a final
marking beat all others.

The walk over the :class:`~repro.petri.reachability.ReachabilityGraph`
memoises each marking's longest continuation.  Reusing it wherever the
marking recurs is exact when every marking a continuation re-enters
lies on every sequence reaching it: true of the chains, branches,
fork-joins and loops back to a marking each iteration passes that this
library builds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .net import PetriNet
from .reachability import DEFAULT_MAX_MARKINGS, GraphEdge, ReachabilityGraph


@dataclass(frozen=True)
class CriticalPath:
    """The result of critical-path analysis.

    Attributes:
        length: execution time in control steps (sum of place delays).
        places: the dominating sequence of control places.
        transitions: transition ids fired along the path.
    """

    length: int
    places: tuple[str, ...]
    transitions: tuple[str, ...]


#: A marking's longest continuation: (length, tie-break rank, first
#: firing or None where the sequence ends, whether that firing re-enters
#: a marking already on the sequence).
_Tail = tuple[int, tuple[int, int], Optional[GraphEdge], bool]
_END: _Tail = (0, (0, 0), None, False)


def critical_path(net: PetriNet,
                  max_markings: int = DEFAULT_MAX_MARKINGS) -> CriticalPath:
    """Compute the critical path of ``net`` over its reachability graph.

    Raises:
        PetriNetError: when ``net`` fails :meth:`PetriNet.validate` or
            has more than ``max_markings`` reachable markings.
    """
    net.validate()
    tails = _longest_tails(ReachabilityGraph(net, max_markings=max_markings))
    root = net.initial_marking
    # Slot 0 holds continuations that end at a final marking, slot 1
    # continuations of any kind; the former win whenever one exists.
    slot = 0 if tails[root][0] is not None else 1
    tail = tails[root][slot]
    assert tail is not None
    length = sum(net.places[p].delay for p in root) + tail[0]
    places = [p for p in sorted(root) if net.places[p].delay > 0]
    transitions: list[str] = []
    marking = root
    while tail is not None:
        _, _, edge, stops = tail
        if edge is None:
            break
        transitions.append(edge.trans_id)
        places.extend(p for p in sorted(edge.dst - marking)
                      if net.places[p].delay > 0)
        marking = edge.dst
        tail = None if stops else tails[marking][slot]
    return CriticalPath(length, tuple(places), tuple(transitions))


def execution_time(net: PetriNet,
                   max_markings: int = DEFAULT_MAX_MARKINGS) -> int:
    """Shorthand for ``critical_path(net).length``."""
    return critical_path(net, max_markings=max_markings).length


def _longest_tails(graph: ReachabilityGraph
                   ) -> dict[frozenset[str], list[Optional[_Tail]]]:
    """Per marking: its longest continuation ending at a final marking
    (None when there is none) and its longest of any kind.

    Iterative, as a control part may exceed Python's recursion limit in
    markings.  Ties go as in a per-path enumeration that numbers
    children before grandchildren and later siblings' descendants
    first: a firing whose sequence ends right after it beats one that
    continues, the earliest such firing wins, and among continuing
    firings the latest does.
    """
    net = graph.net
    tails: dict[frozenset[str], list[Optional[_Tail]]] = {}
    on_path: set[frozenset[str]] = set()
    frames = [(net.initial_marking, 0)]
    while frames:
        marking, first = frames.pop()
        edges = graph.successors(marking)
        if first == 0:
            on_path.add(marking)
            tails[marking] = [_END if net.is_final(marking) else None,
                              None if edges else _END]
        best = tails[marking]
        for index in range(first, len(edges)):
            after = edges[index].dst
            if after not in tails:  # unvisited: finish it first
                frames += [(marking, index), (after, 0)]
                break
            stops = after in on_path
            ends = stops or not graph.successors(after)
            rank = (1, -index) if ends else (0, index)
            cost = sum(net.places[p].delay for p in after - marking)
            for kind, option in enumerate((None, _END) if stops
                                          else tails[after]):
                if option is None:
                    continue
                candidate = (cost + option[0], rank, edges[index], stops)
                current = best[kind]
                if current is None or candidate[:2] > current[:2]:
                    best[kind] = candidate
        else:
            on_path.discard(marking)
    return tails

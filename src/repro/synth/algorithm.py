"""Algorithm 1: the integrated scheduling/allocation synthesis loop.

Each iteration runs the testability analysis, selects the ``k`` best
merger pairs by the C/O balance principle, estimates ΔE and ΔH for each
(by actually rescheduling — scheduling and allocation proceed
simultaneously), applies the pair with the smallest
ΔC = α·ΔE + β·ΔH, and repeats until no merger with ΔC < 0 remains.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count

from ..alloc.binding import Binding
from ..cost import CostModel
from ..dfg import DFG
from ..etpn.design import Design, Signature
from ..etpn.from_dfg import default_design
from ..runtime.budget import Budget
from ..runtime.chaos import ChaosCrash, chaos_point
from ..sched.resched import ConstraintSkeleton
from ..testability import analyze
from .candidates import CandidatePair, rank_candidates
from .merger import MergeOutcome, try_merge
from .result import MergeRecord, SkippedCandidate, SynthesisResult


@dataclass(frozen=True)
class SynthesisParams:
    """User-controlled parameters of Algorithm 1.

    Attributes:
        k: how many balance-ranked pairs to cost each iteration.  Small
            k emphasises testability; large k emphasises ΔC.
        alpha: weight of ΔE (execution time) in ΔC.
        beta: weight of ΔH (hardware cost) in ΔC.
    """

    k: int = 3
    alpha: float = 2.0
    beta: float = 1.0
    #: Candidate ranking: "balance" (the paper, §3) or "connectivity"
    #: (the conventional strawman — used by the A1 ablation bench).
    selection: str = "balance"
    #: Merge-order choice: "enhance" (SR1/SR2, §4.3) or "first"
    #: (naive — used by the A2 ablation bench).
    order_strategy: str = "enhance"


#: What a design's ranking and merger outcomes are kept under: its
#: signature, ``selection`` and ``order_strategy``.
MemoKey = tuple[Signature, str, str]
#: A map kept as its keys (shared between maps with equal keys) and
#: its values, in insertion order.
_Packed = tuple[tuple[str, ...], tuple]


@dataclass(frozen=True)
class KeptOutcome:
    """What a :class:`MergerMemo` keeps of one :class:`MergeOutcome`.

    Enough for a later point to rank it in its window, record it and,
    when it applies it, rebuild its design without a reschedule: the
    merger, its ΔE and ΔH, the schedule and binding, and the design's
    priced ``(bits, H)``.  The design, its lifetimes and its
    data path are not kept.
    """

    kind: str
    kept: str
    absorbed: str
    delta_e: float
    delta_h: float
    order: tuple[str, ...]
    steps: _Packed
    module_of: _Packed
    register_of: _Packed
    area: tuple[int, float] | None

    def delta_c(self, alpha: float, beta: float) -> float:
        """ΔC = α·ΔE + β·ΔH, the paper's selection objective."""
        return alpha * self.delta_e + beta * self.delta_h


#: Per candidate pair: what the memo keeps of its ``try_merge``
#: outcome; None when infeasible.
Outcomes = dict[CandidatePair, KeptOutcome | None]


class MergerMemo:
    """Algorithm 1's per-design work, shared by the runs of one sweep.

    A design's candidate ranking, and the outcome of each ``try_merge``
    on it, depend only on the DFG, the design's steps and binding, the
    cost model, ``selection`` and ``order_strategy``, never on k, α, β
    or the label.  So the grid points of one
    :func:`~repro.synth.explore.explore` call share one memo: a design
    that another point reached is ranked once, and each (design, pair)
    is evaluated once.  Each run still walks the ranking with its own
    window, improvement gate and admissibility check, so it takes the
    decisions it takes alone.  An evaluation that raised is not kept,
    so every run that reaches it records its own skipped candidate.

    The memo also holds the DFG's
    :class:`~repro.sched.resched.ConstraintSkeleton`, so every
    reschedule of the sweep shares its precedence edges, def/use ops and
    serialisation edges.  Outcomes are kept as :class:`KeptOutcome`, so
    the memo holds no design or data path.

    A memo serves one DFG (the same object) and one cost model (an
    equal one); :func:`synthesize` rejects any other.
    """

    def __init__(self, dfg: DFG, cost_model: CostModel) -> None:
        self.dfg = dfg
        self.cost_model = cost_model
        self.skeleton = ConstraintSkeleton(dfg)
        #: Per design: its ranked candidate pairs and the outcomes of
        #: the pairs evaluated so far.
        self.designs: dict[MemoKey, tuple[list[CandidatePair], Outcomes]] = {}
        # One object per distinct pair and per distinct key tuple, shared
        # by every ranking and kept outcome that holds one.
        self._pairs: dict[CandidatePair, CandidatePair] = {}
        self._keys: dict[tuple[str, ...], tuple[str, ...]] = {}

    def ranking(self, pairs: list[CandidatePair]) -> list[CandidatePair]:
        """``pairs``, each replaced by the memo's equal pair."""
        shared = self._pairs.setdefault
        return [shared(pair, pair) for pair in pairs]

    def keep(self, outcome: MergeOutcome | None) -> KeptOutcome | None:
        """What to keep of ``outcome``."""
        if outcome is None:
            return None
        design = outcome.design
        kept = KeptOutcome(
            outcome.kind, outcome.kept, outcome.absorbed, outcome.delta_e,
            outcome.delta_h, outcome.order, self._pack(design.steps),
            self._pack(design.binding.module_of),
            self._pack(design.binding.register_of), design.datapath.area)
        return kept

    def design(self, outcome: KeptOutcome, label: str) -> Design:
        """The design ``outcome`` produced, rebuilt from the kept schedule
        and binding, its data path priced at the kept H: it is neither
        rescheduled nor placed again."""
        return Design(self.dfg, _unpack(outcome.steps),
                      Binding(_unpack(outcome.module_of),
                              _unpack(outcome.register_of)),
                      label, area=outcome.area)

    def _pack(self, mapping: dict) -> _Packed:
        keys = tuple(mapping)
        return self._keys.setdefault(keys, keys), tuple(mapping.values())


def _unpack(packed: _Packed) -> dict:
    keys, values = packed
    return dict(zip(keys, values))


def synthesize(dfg: DFG, params: SynthesisParams | None = None,
               cost_model: CostModel | None = None,
               label: str = "ours",
               budget: Budget | None = None,
               memo: MergerMemo | None = None) -> SynthesisResult:
    """Run the paper's integrated test-synthesis algorithm on ``dfg``.

    The loop applies one merger per iteration and stops when no merger
    with ΔC < 0 remains (see :func:`_best_merger`).  It always stops:
    each applied merger folds one module or register into another, so
    a run applies fewer mergers than the default design has modules and
    registers.

    Args:
        dfg: the behavioural data-flow graph.
        params: (k, α, β) and the ranking and merge-order strategies;
            defaults to (3, 2, 1).
        cost_model: bit width for ΔH; defaults to 8 bits.
        label: label recorded on the produced design.
        budget: optional wall-clock/step budget, charged and checked at
            the start of every merger iteration; on exhaustion the best
            design found so far is returned with ``degraded=True``
            instead of running on.
        memo: rankings and merger outcomes shared with other runs on the
            same DFG and cost model (a fresh one when omitted); the
            result is the same either way.

    Returns:
        The final design and the full merger history.  A candidate whose
        rescheduling or cost evaluation raises is recorded in
        ``result.skipped`` and the loop continues — one misbehaving
        candidate never aborts the run.

    Raises:
        ValueError: ``memo`` was made for another DFG or cost model.
        ScheduleError: the final design's schedule violates a
            dependence.
        BindingError: the final design's binding is illegal for its
            schedule.
    """
    params = params or SynthesisParams()
    cost_model = cost_model or CostModel()
    if memo is None:
        memo = MergerMemo(dfg, cost_model)
    elif memo.dfg is not dfg or memo.cost_model != cost_model:
        raise ValueError("a MergerMemo serves only the DFG and cost model "
                         "it was made for")
    design = default_design(dfg, label=label)
    history: list[MergeRecord] = []
    skipped: list[SkippedCandidate] = []
    degradation: list[str] = []

    for iteration in count():
        # ``charge`` reads the clock only every few hundred steps, so the
        # deadline is checked here as well.
        if budget is not None and (not budget.charge()
                                   or budget.exhausted()):
            degradation.append(
                f"budget_exhausted:{budget.reason} after "
                f"{len(history)} mergers")
            break
        found = _best_merger(design, params, cost_model, iteration,
                             skipped, memo)
        if found is None:
            break
        outcome, design = found
        history.append(MergeRecord(
            iteration=iteration, kind=outcome.kind, kept=outcome.kept,
            absorbed=outcome.absorbed, delta_e=outcome.delta_e,
            delta_h=outcome.delta_h,
            delta_c=outcome.delta_c(params.alpha, params.beta),
            order=outcome.order))

    design.validate()
    return SynthesisResult(design, history,
                           params={"k": params.k, "alpha": params.alpha,
                                   "beta": params.beta,
                                   "bits": cost_model.bits},
                           skipped=skipped,
                           degraded=bool(degradation),
                           degradation_reasons=degradation)


def _rank(design: Design, selection: str) -> list[CandidatePair]:
    """Step 6: every compatible pair, best first."""
    if selection == "connectivity":
        from .candidates import rank_candidates_connectivity
        return rank_candidates_connectivity(design)
    return rank_candidates(design, analyze(design.datapath))


def _best_merger(design: Design, params: SynthesisParams,
                 cost_model: CostModel, iteration: int,
                 skipped: list[SkippedCandidate], memo: MergerMemo
                 ) -> tuple[KeptOutcome, Design] | None:
    """Steps 3-14 of Algorithm 1 for one iteration.

    The k top balance-ranked feasible pairs are costed and the cheapest
    ΔC < 0 wins.  When none of them has ΔC < 0 the search continues down
    the ranking; None means no feasible merger anywhere in the ranking
    lowers ΔC, which ends the run.  (The literal "until no merger
    exists" would compact every design to one module per class, which
    the paper's tables contradict; DESIGN.md §6.)  Candidate evaluation
    runs behind an exception barrier: a candidate whose rescheduling or
    cost estimate raises is appended to ``skipped`` and the ranking walk
    continues with the next pair.  The ranking and the outcomes come
    from ``memo`` when a run has already worked them out.
    """
    key = (design.signature, params.selection, params.order_strategy)
    entry = memo.designs.get(key)
    if entry is None:
        entry = memo.designs[key] = (
            memo.ranking(_rank(design, params.selection)), {})
    ranked, outcomes = entry
    window: list[KeptOutcome] = []
    # The designs this walk evaluated, by the id of their kept outcome.
    fresh: dict[int, Design] = {}

    def improves(outcome: KeptOutcome) -> bool:
        return outcome.delta_c(params.alpha, params.beta) < -1e-12

    for pair in ranked:
        try:
            chaos_point("synth.candidate_eval",
                        (pair.kind, pair.node_a, pair.node_b))
            if pair in outcomes:
                outcome = outcomes[pair]
            else:
                merged = try_merge(design, pair.kind, pair.node_a,
                                   pair.node_b, cost_model,
                                   strategy=params.order_strategy,
                                   skeleton=memo.skeleton)
                outcome = outcomes[pair] = memo.keep(merged)
                if merged is not None:
                    fresh[id(outcome)] = merged.design
            if outcome is None:
                continue
        except ChaosCrash:
            raise  # simulated process death must not be absorbed
        except Exception as exc:  # noqa: BLE001 - the barrier's point
            skipped.append(SkippedCandidate(
                iteration, pair.kind, pair.node_a, pair.node_b,
                f"{type(exc).__name__}: {exc}"))
            continue
        window.append(outcome)
        # Once the k-window is full, keep extending the ranking until
        # the window contains an improving merger: the balance principle
        # then still decides *which* improving merger is taken first.
        if len(window) >= params.k and any(improves(o) for o in window):
            break
    window = [o for o in window if improves(o)]
    if not window:
        return None
    best = min(window, key=lambda o: (o.delta_c(params.alpha, params.beta),
                                      o.kind, o.kept, o.absorbed))
    # The evaluated design when this walk evaluated it, else one rebuilt
    # from the memo.
    evaluated = fresh.get(id(best))
    if evaluated is None:
        return best, memo.design(best, design.label)
    return best, evaluated.replaced(label=design.label)

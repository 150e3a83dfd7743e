"""Forward abstract-interpretation fixpoint over the DFG.

The DFG is one straight-line loop body (the loop structure lives in the
ETPN control part, signalled by ``dfg.loop_condition``), so the engine
has exactly one merge point: the loop header, where the values fed back
across the ETPN back-edge join the entry state.  The analysis:

1. seeds every primary input from its entry assumption (full range by
   default);
2. runs the body once in program order, transferring each operation
   through :func:`~repro.analysis.dataflow.domain.transfer` — multiple
   definitions of one variable resolve exactly like the reference
   interpreter, by program order;
3. for looping behaviours, joins the fed-back output values into the
   entry state and repeats, **widening** after :data:`WIDEN_DELAY`
   passes so convergence never depends on the word width;
4. once the entry state is stable, runs one final collection pass whose
   per-operation facts are sound for *every* loop round (the stable
   entry over-approximates each round's entry by induction).

The benchmark DFGs carry loop-carried values by the 1998 papers' naming
convention (``x1`` is next-state ``x``); :func:`infer_feedback` derives
that map and the certificate records it, so the claim the certificate
checks is exactly the claim the engine proved.
"""

from __future__ import annotations

import time
from typing import Mapping, Optional

from ...dfg.graph import Const, DFG
from ...rtl.semantics import mask
from .certificate import DataflowCertificate
from .domain import AbstractValue, join, transfer, widen

#: Fixpoint passes before widening accelerates convergence.
WIDEN_DELAY = 3

#: Hard ceiling on fixpoint passes (reached only on engine bugs; the
#: engine then falls back to TOP entries, which is always sound).
MAX_ITERATIONS = 48


def infer_feedback(dfg: DFG) -> dict[str, str]:
    """Derive the loop-carried value map from the naming convention.

    The 1998 benchmarks write next-state values to ``<var>1`` (Diffeq:
    ``x1 = x + dx`` feeds ``x`` in the next iteration).  An output
    ``v1`` whose stem ``v`` is a primary input is a loop-carried pair;
    anything else (e.g. Diffeq's input ``a1``) is left alone.  Returns
    an empty map for straight-line behaviour.
    """
    if dfg.loop_condition is None:
        return {}
    inputs = {v.name for v in dfg.inputs()}
    return {out.name: out.name[:-1] for out in dfg.outputs()
            if out.name.endswith("1") and out.name[:-1] in inputs}


def _entry_state(dfg: DFG, bits: int,
                 assumptions: Mapping[str, tuple[int, int]]
                 ) -> dict[str, AbstractValue]:
    """The abstract value of each primary input at loop entry."""
    m = mask(bits)
    state = {}
    for var in dfg.inputs():
        lo, hi = assumptions.get(var.name, (0, m))
        state[var.name] = AbstractValue.range(lo, hi, bits)
    return state


def _run_body(dfg: DFG, bits: int, entry: dict[str, AbstractValue]
              ) -> tuple[dict[str, AbstractValue],
                         dict[str, tuple[AbstractValue, ...]],
                         dict[str, AbstractValue],
                         dict[str, AbstractValue]]:
    """One abstract pass over the body in program order.

    Returns ``(op_facts, op_operands, final_values, var_facts)`` where
    ``final_values`` is each variable's last abstraction (what feeds
    back) and ``var_facts`` joins the entry value with *every*
    definition — the register-lifetime abstraction.
    """
    values: dict[str, AbstractValue] = dict(entry)
    var_facts: dict[str, AbstractValue] = dict(entry)
    op_facts: dict[str, AbstractValue] = {}
    op_operands: dict[str, tuple[AbstractValue, ...]] = {}
    for op_id in dfg.op_order:
        op = dfg.operation(op_id)
        operands = []
        for src in op.srcs:
            if isinstance(src, Const):
                operands.append(AbstractValue.const(src.value, bits))
            else:
                operands.append(values.get(src, AbstractValue.top(bits)))
        op_operands[op_id] = tuple(operands)
        if len(operands) == 1:
            operands.append(AbstractValue.const(0, bits))
        result = transfer(op.kind, operands[0], operands[1], bits)
        op_facts[op_id] = result
        if op.dst is not None:
            values[op.dst] = result
            prior = var_facts.get(op.dst)
            var_facts[op.dst] = (result if prior is None
                                 else join(prior, result, bits))
    return op_facts, op_operands, values, var_facts


def input_assumptions(dfg: DFG, bits: int, input_bits: Optional[int]
                      ) -> Optional[dict[str, tuple[int, int]]]:
    """Entry intervals for :func:`analyze_dataflow` when every primary
    input occupies at most ``input_bits`` of the ``bits``-wide word;
    None (no assumption) when ``input_bits`` is None."""
    if input_bits is None:
        return None
    hi = (1 << min(input_bits, bits)) - 1
    return {v.name: (0, hi) for v in dfg.inputs()}


def analyze_dataflow(dfg: DFG, bits: int,
                     assumptions: Optional[Mapping[str, tuple[int, int]]]
                     = None,
                     feedback: Optional[Mapping[str, str]] = None
                     ) -> DataflowCertificate:
    """Run the dataflow fixpoint and package the facts as a certificate.

    Args:
        dfg: the behaviour to analyse.
        bits: word width.
        assumptions: entry interval per input name; unlisted inputs get
            the full range.  Recorded in the certificate — the facts
            are sound *relative to* these preconditions.
        feedback: loop-carried ``output -> input`` map; None derives it
            with :func:`infer_feedback`, an empty mapping forces
            straight-line analysis.

    Returns:
        A :class:`DataflowCertificate` whose facts hold for every
        concrete execution of the recorded model.
    """
    t0 = time.perf_counter()
    m = mask(bits)
    clamped: dict[str, tuple[int, int]] = {}
    for name, (lo, hi) in dict(assumptions or {}).items():
        lo = max(0, min(lo, m))
        clamped[name] = (lo, max(lo, min(hi, m)))
    fb = dict(infer_feedback(dfg) if feedback is None else feedback)
    fb = {o: i for o, i in fb.items()
          if o in dfg.variables and i in dfg.variables}

    entry = _entry_state(dfg, bits, clamped)
    iterations = 0
    widened = False
    if fb:
        for iterations in range(1, MAX_ITERATIONS + 1):
            _, _, finals, _ = _run_body(dfg, bits, entry)
            new_entry = dict(entry)
            for out_var, in_var in fb.items():
                fed = finals.get(out_var)
                if fed is None:
                    continue
                merged = join(entry[in_var], fed, bits)
                if iterations > WIDEN_DELAY:
                    accelerated = widen(entry[in_var], merged, bits)
                    widened = widened or accelerated != merged
                    merged = accelerated
                new_entry[in_var] = merged
            if new_entry == entry:
                break
            entry = new_entry
        else:  # pragma: no cover - widening prevents this in practice
            entry = {name: AbstractValue.top(bits) for name in entry}
            widened = True

    op_facts, op_operands, _, var_facts = _run_body(dfg, bits, entry)
    return DataflowCertificate(
        name=dfg.name, bits=bits, assumptions=clamped, feedback=fb,
        loop_iterations=max(1, iterations), widened=widened,
        op_facts=op_facts, op_operands=op_operands, var_facts=var_facts,
        elapsed_seconds=time.perf_counter() - t0)

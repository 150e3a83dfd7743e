"""BIST emulation with exact aliasing measurement.

Each session drives a functional unit's operand ports from two LFSRs
and compresses the result stream in a MISR.  The emulation packs the
good machine and up to 63 faulty machines into the 64 bit lanes, runs
them through one compiled circuit, and compares *signatures* — so the
reported coverage accounts for MISR aliasing exactly rather than by the
usual 2^-w approximation (which the results let you verify).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..atpg.fault_sim import FAULT_LANES, lane_masks
from ..atpg.faults import full_fault_list
from ..dfg.ops import OpKind
from ..etpn.design import Design
from ..gates.expand import _op_word
from ..gates.netlist import GateNetlist
from ..gates.simulate import FULL, CompiledCircuit
from ..gates.words import input_word
from .lfsr import LFSR, LaneMISR
from .plan import BistPlan, bilbo_overhead_mm2, plan_bist


def unit_netlist(kind: OpKind, bits: int) -> GateNetlist:
    """A standalone, pruned netlist computing one operation kind.

    Pruning drops structurally unobservable gates (a truncating adder's
    final carry chain, for instance) so the fault universe contains
    only testable sites.
    """
    from ..gates.prune import prune_unobservable

    net = GateNetlist(f"bist_{kind.name}_{bits}")
    a = input_word(net, "a", bits)
    b = input_word(net, "b", bits)
    out = _op_word(net, kind, a, b)
    for index, gid in enumerate(out):
        net.set_output(f"o[{index}]", gid)
    return prune_unobservable(net)


@dataclass
class ModuleBistResult:
    """One session's outcome."""

    kind: OpKind
    total_faults: int = 0
    stream_detected: int = 0
    signature_detected: int = 0
    cycles: int = 0

    @property
    def aliased(self) -> int:
        """Faults visible in the stream but lost in the signature."""
        return self.stream_detected - self.signature_detected

    @property
    def coverage(self) -> float:
        if not self.total_faults:
            return 0.0
        return 100.0 * self.signature_detected / self.total_faults


def evaluate_unit_bist(kind: OpKind, bits: int, patterns: int = 255,
                       seed_a: int = 0b0101, seed_b: int = 0b0011,
                       misr_width: int | None = None) -> ModuleBistResult:
    """Emulate one BIST session on a unit of the given kind."""
    net = unit_netlist(kind, bits)
    circuit = CompiledCircuit(net)
    faults = full_fault_list(net)
    # A repeated LFSR stream cancels in the linear MISR (an even number
    # of identical difference streams XORs to zero), so a session never
    # applies more patterns than the generator's period.
    patterns = min(patterns, 2 ** bits - 1)
    result = ModuleBistResult(kind=kind, total_faults=len(faults),
                              cycles=patterns)
    # Signature registers are conventionally wider than the data path:
    # aliasing probability scales with 2^-width.
    misr_width = misr_width or (bits + 4)

    # Pre-compute the LFSR pattern streams (shared by all fault groups).
    lfsr_a = LFSR(bits, seed=seed_a)
    lfsr_b = LFSR(bits, seed=seed_b)
    stream = [(lfsr_a.step(), lfsr_b.step()) for _ in range(patterns)]

    # One compiled function hooks every fault site; each group injects
    # its faults through its own masks.
    sites = tuple(sorted({f.gid for f in faults}))
    site_index = {gid: k for k, gid in enumerate(sites)}
    fn = circuit.cycle_fn(sites)
    stream_detected = 0
    signature_detected = 0
    for start in range(0, len(faults), FAULT_LANES):
        group = faults[start:start + FAULT_LANES]
        nmask, fval = lane_masks(group, site_index)
        misr = LaneMISR(misr_width)
        stream_diff = 0
        state: list[int] = []
        for a_val, b_val in stream:
            pi = []
            for name in circuit.input_names:
                word, index = name[0], int(name[2:-1])
                value = a_val if word == "a" else b_val
                pi.append(FULL if (value >> index) & 1 else 0)
            outs, state = fn(pi, state, nmask, fval)
            for value in outs:
                good = FULL if value & 1 else 0
                stream_diff |= value ^ good
            misr.absorb(outs)
        signature_diff = misr.differing_lanes()
        for offset, fault in enumerate(group):
            lane_bit = 1 << (offset + 1)
            if stream_diff & lane_bit:
                stream_detected += 1
                if signature_diff & lane_bit:
                    signature_detected += 1
    result.stream_detected = stream_detected
    result.signature_detected = signature_detected
    return result


@dataclass
class PlanBistResult:
    """Aggregate BIST outcome of a whole design."""

    plan: BistPlan = field(default_factory=BistPlan)
    sessions: list[ModuleBistResult] = field(default_factory=list)
    overhead_mm2: float = 0.0

    @property
    def total_faults(self) -> int:
        return sum(s.total_faults for s in self.sessions)

    @property
    def detected(self) -> int:
        return sum(s.signature_detected for s in self.sessions)

    @property
    def aliased(self) -> int:
        return sum(s.aliased for s in self.sessions)

    @property
    def coverage(self) -> float:
        if not self.total_faults:
            return 0.0
        return 100.0 * self.detected / self.total_faults

    @property
    def test_cycles(self) -> int:
        return sum(s.cycles for s in self.sessions)


def evaluate_design_bist(design: Design, bits: int,
                         patterns: int = 255) -> PlanBistResult:
    """Plan and emulate BIST for every functional unit of a design.

    A merged unit runs one sub-session per operation kind it implements
    (the BIST controller would select each in turn).  Conflicted
    sessions (self-adjacent registers) still run — the conflict is
    reported through the plan, mirroring how the paper treats
    self-loops as a quality problem rather than a hard failure.
    """
    plan = plan_bist(design.datapath)
    result = PlanBistResult(plan=plan,
                            overhead_mm2=bilbo_overhead_mm2(plan, bits))
    for module in design.datapath.modules():
        kinds = sorted({design.dfg.operation(op).kind for op in module.ops},
                       key=lambda k: k.name)
        for kind in kinds:
            result.sessions.append(evaluate_unit_bist(kind, bits, patterns))
    return result

"""An abstract domain of unsigned words: intervals × known bits.

An :class:`AbstractValue` over-approximates the set of unsigned words a
signal can carry as the *product* of two lattices:

* an **interval** ``[lo, hi]`` (``0 <= lo <= hi <= 2**bits - 1``);
* **known bits**: a ternary word where each bit position is proved 0,
  proved 1, or unknown (``X``), encoded as a ``(known_mask,
  known_value)`` pair with ``known_value & ~known_mask == 0``.

The two components exchange information through :func:`reduce` (leading
zeros of ``hi`` become known-0 bits; the known-bit pattern clamps the
interval), so each transfer function only has to be precise in the
component where it is naturally strong — carry propagation for the
interval of ADD, bit masking for AND/OR — and reduction spreads the
precision to the other component.

Every transfer function here is *sound* with respect to
:func:`repro.rtl.semantics.apply_op`, the single source of truth for
word semantics: if concrete operands lie inside the operand abstract
values, the concrete result lies inside the transferred abstract value.
The property-based tests brute-force this contract at small widths and
sample it with Hypothesis at large ones.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...dfg.ops import OpKind, arity, is_comparison
from ...rtl.semantics import apply_op, mask

#: Ternary bit: 0, 1 or None (unknown / X).
TernaryBit = int | None


@dataclass(frozen=True)
class AbstractValue:
    """One signal's abstraction: interval × known bits.

    Attributes:
        lo: smallest possible value (unsigned).
        hi: largest possible value (unsigned).
        known_mask: bit positions whose value is proved.
        known_value: the proved bit values (subset of ``known_mask``).
    """

    lo: int
    hi: int
    known_mask: int
    known_value: int

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @staticmethod
    def top(bits: int) -> "AbstractValue":
        """The unconstrained value at the given width."""
        return AbstractValue(0, mask(bits), 0, 0)

    @staticmethod
    def const(value: int, bits: int) -> "AbstractValue":
        """The singleton abstraction of one concrete word."""
        value &= mask(bits)
        return AbstractValue(value, value, mask(bits), value)

    @staticmethod
    def range(lo: int, hi: int, bits: int) -> "AbstractValue":
        """The abstraction of an interval (reduced against its bits)."""
        m = mask(bits)
        lo = max(0, min(lo, m))
        hi = max(lo, min(hi, m))
        return reduce(lo, hi, 0, 0, bits)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def is_const(self) -> bool:
        """True when the abstraction pins a single concrete value."""
        return self.lo == self.hi

    @property
    def const_value(self) -> int:
        """The pinned value (meaningful only when :attr:`is_const`)."""
        return self.lo

    def contains(self, value: int) -> bool:
        """True when ``value`` is consistent with every derived fact."""
        return (self.lo <= value <= self.hi
                and (value & self.known_mask) == self.known_value)

    def required_width(self) -> int:
        """Bits needed to represent every value the abstraction admits."""
        return max(1, self.hi.bit_length())

    def known_bit_count(self) -> int:
        """Number of bit positions proved 0 or 1."""
        return bin(self.known_mask).count("1")

    def bit(self, i: int) -> TernaryBit:
        """The ternary value of bit ``i`` (None when unknown)."""
        if (self.known_mask >> i) & 1:
            return (self.known_value >> i) & 1
        return None

    def to_tuple(self) -> tuple[int, int, int, int]:
        """Compact serialisable form ``(lo, hi, known_mask, known_value)``."""
        return (self.lo, self.hi, self.known_mask, self.known_value)

    @staticmethod
    def from_tuple(data: tuple[int, int, int, int] | list[int]
                   ) -> "AbstractValue":
        lo, hi, km, kv = data
        return AbstractValue(lo, hi, km, kv)

    def __str__(self) -> str:  # pragma: no cover - debug helper
        if self.is_const:
            return f"={self.lo}"
        return f"[{self.lo},{self.hi}] k={self.known_mask:x}/" \
               f"{self.known_value:x}"


# ----------------------------------------------------------------------
# Reduction, join, widening
# ----------------------------------------------------------------------
def reduce(lo: int, hi: int, known_mask: int, known_value: int,
           bits: int) -> AbstractValue:
    """Mutually refine an interval and a known-bits pair.

    Leading zeros of ``hi`` prove high bits 0; the known-bit pattern's
    min/max clamp the interval; a collapsed interval pins every bit.
    Iterates to a local fixpoint (at most a few rounds — each round
    either tightens or stops).  An inconsistent input (empty meet) falls
    back to TOP, which is always sound; transfer functions never
    produce one on reachable inputs.
    """
    m = mask(bits)
    lo = max(0, min(lo, m))
    hi = min(hi, m)
    known_value &= known_mask
    for _ in range(bits + 1):
        # interval -> bits: everything above hi's top bit is zero.
        high_zero = m & ~mask(hi.bit_length())
        if high_zero & known_value:  # pragma: no cover - defensive
            return AbstractValue.top(bits)  # bit proved 1 above hi
        known_mask |= high_zero
        # bits -> interval: min sets unknowns to 0, max sets them to 1.
        kmin = known_value
        kmax = known_value | (~known_mask & m)
        new_lo = max(lo, kmin)
        new_hi = min(hi, kmax)
        if new_lo > new_hi:  # pragma: no cover - defensive
            return AbstractValue.top(bits)
        if new_lo == new_hi:
            return AbstractValue.const(new_lo, bits)
        if (new_lo, new_hi) == (lo, hi):
            break
        lo, hi = new_lo, new_hi
    return AbstractValue(lo, hi, known_mask, known_value)


def join(a: AbstractValue, b: AbstractValue, bits: int) -> AbstractValue:
    """Least upper bound: admits every value either operand admits."""
    agree = a.known_mask & b.known_mask & ~(a.known_value ^ b.known_value)
    return reduce(min(a.lo, b.lo), max(a.hi, b.hi),
                  agree, a.known_value & agree, bits)


def widen(old: AbstractValue, new: AbstractValue, bits: int
          ) -> AbstractValue:
    """Widening: any still-growing interval bound jumps to its extreme.

    Known bits use the plain join — that lattice has height ``bits`` so
    it needs no acceleration.  Guarantees the loop fixpoint terminates
    in a handful of iterations regardless of width.
    """
    joined = join(old, new, bits)
    lo = old.lo if joined.lo >= old.lo else 0
    hi = old.hi if joined.hi <= old.hi else mask(bits)
    return reduce(lo, hi, joined.known_mask, joined.known_value, bits)


# ----------------------------------------------------------------------
# Ternary ripple-carry addition (known-bits component of ADD/SUB)
# ----------------------------------------------------------------------
def _ternary_add(a: AbstractValue, b_mask: int, b_value: int,
                 carry: TernaryBit, bits: int) -> tuple[int, int]:
    """Known bits of ``a + b + carry`` by ternary full-adder ripple.

    ``b`` arrives as a raw (mask, value) pair so SUB can pass the
    bitwise complement without building an intermediate value.
    """
    known_mask = 0
    known_value = 0
    for i in range(bits):
        abit = a.bit(i)
        bbit = (b_value >> i) & 1 if (b_mask >> i) & 1 else None
        total = [abit, bbit, carry]
        if None not in total:
            s = abit + bbit + carry  # type: ignore[operator]
            known_mask |= 1 << i
            known_value |= (s & 1) << i
            carry = s >> 1
        else:
            ones = sum(1 for t in total if t == 1)
            zeros = sum(1 for t in total if t == 0)
            # The sum bit is unknown, but the carry-out may still be
            # decided: two known 1s force it, two known 0s forbid it.
            carry = 1 if ones >= 2 else 0 if zeros >= 2 else None
    return known_mask, known_value


# ----------------------------------------------------------------------
# Per-kind transfer functions
# ----------------------------------------------------------------------
def _transfer_add(a: AbstractValue, b: AbstractValue,
                  bits: int) -> AbstractValue:
    m = mask(bits)
    lo, hi = a.lo + b.lo, a.hi + b.hi
    if hi <= m:
        pass  # no wrap possible
    elif lo > m:
        lo, hi = lo - (m + 1), hi - (m + 1)  # always wraps exactly once
    else:
        lo, hi = 0, m  # may or may not wrap
    km, kv = _ternary_add(a, b.known_mask, b.known_value, 0, bits)
    return reduce(lo, hi, km, kv, bits)


def _transfer_sub(a: AbstractValue, b: AbstractValue,
                  bits: int) -> AbstractValue:
    m = mask(bits)
    lo, hi = a.lo - b.hi, a.hi - b.lo
    if lo >= 0:
        pass  # never borrows
    elif hi < 0:
        lo, hi = lo + (m + 1), hi + (m + 1)  # always borrows exactly once
    else:
        lo, hi = 0, m
    # a - b == a + ~b + 1 in two's complement at this width.
    b_flipped = ~b.known_value & b.known_mask & m
    km, kv = _ternary_add(a, b.known_mask, b_flipped, 1, bits)
    return reduce(lo, hi, km, kv, bits)


def _transfer_mul(a: AbstractValue, b: AbstractValue,
                  bits: int) -> AbstractValue:
    m = mask(bits)
    if a.hi * b.hi <= m:
        lo, hi = a.lo * b.lo, a.hi * b.hi
    else:
        lo, hi = 0, m
    # The low k bits of a product depend only on the low k bits of the
    # factors, so a shared run of known low bits survives multiplication.
    ta = _trailing_known(a, bits)
    tb = _trailing_known(b, bits)
    k = min(ta, tb)
    km = kv = 0
    if k:
        low = (a.known_value & mask(k)) * (b.known_value & mask(k))
        km, kv = mask(k), low & mask(k)
    return reduce(lo, hi, km, kv, bits)


def _trailing_known(v: AbstractValue, bits: int) -> int:
    """Length of the contiguous known-bit run starting at bit 0."""
    n = 0
    while n < bits and (v.known_mask >> n) & 1:
        n += 1
    return n


def _transfer_div(a: AbstractValue, b: AbstractValue,
                  bits: int) -> AbstractValue:
    m = mask(bits)
    if b.lo >= 1:
        return reduce(a.lo // b.hi, a.hi // b.lo, 0, 0, bits)
    if b.hi == 0:  # divisor provably zero: the divider saturates
        return AbstractValue.const(m, bits)
    # Divisor may be zero (result m) or positive (result <= a.hi).
    return reduce(a.lo // b.hi if b.hi else m, m, 0, 0, bits)


def _compare_verdict(kind: OpKind, a: AbstractValue,
                     b: AbstractValue) -> TernaryBit:
    """Decide a comparison from intervals and known bits, if possible."""
    if kind is OpKind.LT:
        return 1 if a.hi < b.lo else 0 if a.lo >= b.hi else None
    if kind is OpKind.GT:
        return 1 if a.lo > b.hi else 0 if a.hi <= b.lo else None
    if kind is OpKind.LE:
        return 1 if a.hi <= b.lo else 0 if a.lo > b.hi else None
    if kind is OpKind.GE:
        return 1 if a.lo >= b.hi else 0 if a.hi < b.lo else None
    common = a.known_mask & b.known_mask
    bits_conflict = bool((a.known_value ^ b.known_value) & common)
    disjoint = a.hi < b.lo or b.hi < a.lo
    equal = a.is_const and b.is_const and a.lo == b.lo
    if kind is OpKind.EQ:
        return 0 if disjoint or bits_conflict else 1 if equal else None
    if kind is OpKind.NE:
        return 1 if disjoint or bits_conflict else 0 if equal else None
    return None  # pragma: no cover - exhaustive over comparisons


def _transfer_shl(a: AbstractValue, b: AbstractValue,
                  bits: int) -> AbstractValue:
    m = mask(bits)
    if b.is_const:
        s = b.const_value % bits
        # Bit i of the result is bit i-s of a (and the low s bits are
        # zero) — exact per-bit even when the interval wraps.
        km = ((a.known_mask << s) & m) | mask(s)
        kv = (a.known_value << s) & m
        if a.hi << s <= m:
            return reduce(a.lo << s, a.hi << s, km, kv, bits)
        return reduce(0, m, km, kv, bits)
    # Unknown shift: zeros below the operand's known-zero run persist.
    tz = 0
    while tz < bits and a.bit(tz) == 0:
        tz += 1
    return reduce(0, m if a.hi else 0, mask(tz), 0, bits)


def _transfer_shr(a: AbstractValue, b: AbstractValue,
                  bits: int) -> AbstractValue:
    m = mask(bits)
    if b.is_const:
        s = b.const_value % bits
        # Bit i of the result is bit i+s of a; the top s bits are zero.
        km = (a.known_mask >> s) | (m & ~mask(bits - s))
        return reduce(a.lo >> s, a.hi >> s, km, a.known_value >> s, bits)
    return reduce(0, a.hi, 0, 0, bits)


def transfer(kind: OpKind, a: AbstractValue, b: AbstractValue,
             bits: int) -> AbstractValue:
    """The abstract semantics of one operation.

    Mirrors :func:`repro.rtl.semantics.apply_op` (unary kinds ignore
    ``b``; callers conventionally pad with ``const(0)``).  Constant
    operands short-circuit to the concrete semantics, so the two can
    never disagree on fully-known inputs.
    """
    m = mask(bits)
    if a.is_const and (arity(kind) == 1 or b.is_const):
        return AbstractValue.const(
            apply_op(kind, a.const_value, b.const_value, bits), bits)
    if kind is OpKind.ADD:
        return _transfer_add(a, b, bits)
    if kind is OpKind.SUB:
        return _transfer_sub(a, b, bits)
    if kind is OpKind.MUL:
        return _transfer_mul(a, b, bits)
    if kind is OpKind.DIV:
        return _transfer_div(a, b, bits)
    if is_comparison(kind):
        verdict = _compare_verdict(kind, a, b)
        if verdict is not None:
            return AbstractValue.const(verdict, bits)
        return reduce(0, 1, m & ~1, 0, bits)
    if kind is OpKind.AND:
        known0 = (a.known_mask & ~a.known_value) | \
                 (b.known_mask & ~b.known_value)
        known1 = a.known_mask & a.known_value & b.known_mask & b.known_value
        return reduce(0, min(a.hi, b.hi), (known0 | known1) & m,
                      known1 & m, bits)
    if kind is OpKind.OR:
        known1 = (a.known_mask & a.known_value) | \
                 (b.known_mask & b.known_value)
        known0 = (a.known_mask & ~a.known_value) & \
                 (b.known_mask & ~b.known_value)
        hi = min(m, mask(max(a.hi.bit_length(), b.hi.bit_length())))
        return reduce(max(a.lo, b.lo), hi, (known0 | known1) & m,
                      known1 & m, bits)
    if kind is OpKind.XOR:
        km = a.known_mask & b.known_mask
        hi = min(m, mask(max(a.hi.bit_length(), b.hi.bit_length())))
        return reduce(0, hi, km, (a.known_value ^ b.known_value) & km, bits)
    if kind is OpKind.NOT:
        return reduce(m - a.hi, m - a.lo, a.known_mask,
                      ~a.known_value & a.known_mask, bits)
    if kind is OpKind.SHL:
        return _transfer_shl(a, b, bits)
    if kind is OpKind.SHR:
        return _transfer_shr(a, b, bits)
    if kind is OpKind.MOVE:
        return a
    raise ValueError(f"unknown operation kind {kind!r}")  # pragma: no cover

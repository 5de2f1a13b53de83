"""KnownBits and related value tracking, modeled on LLVM's ValueTracking.

The InstCombine-style peephole rules use this to justify transforms
("the top bits are known zero, so this zext-of-trunc is a no-op").
Soundness of this analysis is property-tested against the concrete
interpreter, and every transfer function is pinned exhaustively at
widths 1-4 (``tests/test_knownbits_exhaustive.py``).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..ir.instructions import (BinaryOperator, CallInst, CastInst,
                               Instruction, PhiNode, SelectInst)
from ..ir.types import IntType
from ..ir.values import ConstantInt, Value

MAX_DEPTH = 6


class _Fields(NamedTuple):
    width: int
    zero: int = 0
    one: int = 0


class KnownBits(_Fields):
    """Bit-level facts: ``zero`` has a 1 where the bit is known 0, ``one``
    where it is known 1.  ``zero & one == 0`` always holds.

    Immutable: a :class:`KnownBitsMemo` hands one object to every caller.
    """

    __slots__ = ()

    def __new__(cls, width: int, zero: int = 0, one: int = 0) -> "KnownBits":
        mask = (1 << width) - 1
        zero &= mask
        one &= mask
        if zero & one:
            raise ValueError("conflicting known bits")
        return _new(cls, (width, zero, one))

    @classmethod
    def unknown(cls, width: int) -> "KnownBits":
        return _new(cls, (width, 0, 0))

    @classmethod
    def constant(cls, width: int, value: int) -> "KnownBits":
        mask = (1 << width) - 1
        value &= mask
        return _new(cls, (width, ~value & mask, value))

    @property
    def mask(self) -> int:
        return (1 << self.width) - 1

    def is_constant(self) -> bool:
        return (self.zero | self.one) == self.mask

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("bits not fully known")
        return self.one

    def is_known_zero(self) -> bool:
        return self.zero == self.mask

    def is_non_zero(self) -> bool:
        return self.one != 0

    def is_non_negative(self) -> bool:
        return bool(self.zero >> (self.width - 1))

    def is_negative(self) -> bool:
        return bool(self.one >> (self.width - 1))

    def min_unsigned(self) -> int:
        return self.one

    def max_unsigned(self) -> int:
        return self.mask & ~self.zero

    def admits(self, value: int) -> bool:
        """Does a concrete value agree with these known bits?"""
        value &= self.mask
        return (value & self.zero) == 0 and (value & self.one) == self.one

    def count_leading_known_zeros(self) -> int:
        return self.width - (self.mask & ~self.zero).bit_length()

    def count_leading_known_ones(self) -> int:
        return self.width - (self.mask & ~self.one).bit_length()

    def count_trailing_known_zeros(self) -> int:
        # ~zero & (zero + 1) isolates the lowest bit not known zero.
        return (~self.zero & (self.zero + 1)).bit_length() - 1

    # The results below need no re-masking and cannot conflict when both
    # operands are consistent and share a width, which one IR operation's
    # operands do.

    def __and__(self, other: "KnownBits") -> "KnownBits":
        return _new(KnownBits, (self.width, self.zero | other.zero,
                                 self.one & other.one))

    def __or__(self, other: "KnownBits") -> "KnownBits":
        return _new(KnownBits, (self.width, self.zero & other.zero,
                                 self.one | other.one))

    def __xor__(self, other: "KnownBits") -> "KnownBits":
        known = (self.zero | self.one) & (other.zero | other.one)
        ones = (self.one ^ other.one) & known
        return _new(KnownBits, (self.width, known & ~ones, ones))

    def intersect(self, other: "KnownBits") -> "KnownBits":
        """Facts true on both paths (for select/phi merging)."""
        return _new(KnownBits, (self.width, self.zero & other.zero,
                                 self.one & other.one))


# The unchecked constructor: for results already masked and conflict-free.
_new = tuple.__new__


class KnownBitsMemo:
    """Known bits of instructions, valid until the next rewrite.

    One scan-pass run owns one memo and clears it whenever it rewrites
    the function, so an entry never outlives the IR it was computed from.
    An entry keeps, next to the result, the *height* of the recursion that
    produced it: the number of levels of instructions it evaluated (a phi
    needs one level more, for its own ``depth + 1 >= MAX_DEPTH`` test).
    The entry answers a lookup at depth ``d`` only when
    ``d + height <= MAX_DEPTH`` — exactly when the uncached recursion
    from ``d`` would not meet the depth cap either — and a result the cap
    cut short is never stored, so a hit returns what recomputing would.

    ``queries`` counts instruction lookups at any depth, ``hits`` the
    ones answered from an entry.
    """

    __slots__ = ("_entries", "_reach", "queries", "hits")

    def __init__(self) -> None:
        self._entries: Dict[Instruction, Tuple[KnownBits, int]] = {}
        # While a lookup is being computed: the deepest level (exclusive)
        # its recursion has needed so far.
        self._reach = 0
        self.queries = 0
        self.hits = 0

    def clear(self) -> None:
        self._entries.clear()

    def need(self, level: int) -> None:
        """The lookup being computed depends on ``level`` existing."""
        if level > self._reach:
            self._reach = level

    def lookup(self, inst: Instruction, depth: int) -> KnownBits:
        self.queries += 1
        entry = self._entries.get(inst)
        if entry is not None and depth + entry[1] <= MAX_DEPTH:
            self.hits += 1
            known, height = entry
        elif depth >= MAX_DEPTH:
            known, height = KnownBits.unknown(inst.type.width), 1
        else:
            outer, self._reach = self._reach, depth + 1
            known = _known_bits_instruction(inst, depth, self)
            height = self._reach - depth
            self._reach = outer
            if depth + height <= MAX_DEPTH:
                self._entries[inst] = (known, height)
        if depth + height > self._reach:
            self._reach = depth + height
        return known


def compute_known_bits(value: Value, depth: int = 0,
                       memo: Optional[KnownBitsMemo] = None) -> KnownBits:
    """Conservative known-bits for an integer-typed SSA value."""
    if isinstance(value, ConstantInt):
        return KnownBits.constant(value.type.width, value.value)
    if not isinstance(value.type, IntType):
        raise ValueError("known bits only defined for integers")
    if not isinstance(value, Instruction):
        # Arguments and globals; undef/poison may be folded to anything.
        return KnownBits.unknown(value.type.width)
    if memo is not None:
        return memo.lookup(value, depth)
    if depth >= MAX_DEPTH:
        return KnownBits.unknown(value.type.width)
    return _known_bits_instruction(value, depth, None)


def _known_bits_instruction(inst: Instruction, depth: int,
                            memo: Optional[KnownBitsMemo]) -> KnownBits:
    width = inst.type.width
    mask = (1 << width) - 1
    depth += 1  # the operands' level

    if isinstance(inst, BinaryOperator):
        opcode = inst.opcode
        if opcode == "and":
            return (compute_known_bits(inst.lhs, depth, memo)
                    & compute_known_bits(inst.rhs, depth, memo))
        if opcode == "or":
            return (compute_known_bits(inst.lhs, depth, memo)
                    | compute_known_bits(inst.rhs, depth, memo))
        if opcode == "xor":
            return (compute_known_bits(inst.lhs, depth, memo)
                    ^ compute_known_bits(inst.rhs, depth, memo))
        if opcode in ("add", "sub"):
            return _known_bits_addsub(
                opcode, compute_known_bits(inst.lhs, depth, memo),
                compute_known_bits(inst.rhs, depth, memo), width)
        if opcode == "mul":
            return _known_bits_mul(compute_known_bits(inst.lhs, depth, memo),
                                   compute_known_bits(inst.rhs, depth, memo),
                                   width)
        if opcode == "shl" and isinstance(inst.rhs, ConstantInt):
            shift = inst.rhs.value
            if shift >= width:
                return KnownBits.unknown(width)  # poison; claim nothing
            known = compute_known_bits(inst.lhs, depth, memo)
            return _new(KnownBits, (
                width, ((known.zero << shift) | ((1 << shift) - 1)) & mask,
                (known.one << shift) & mask))
        if opcode == "lshr" and isinstance(inst.rhs, ConstantInt):
            shift = inst.rhs.value
            if shift >= width:
                return KnownBits.unknown(width)
            known = compute_known_bits(inst.lhs, depth, memo)
            high_zeros = mask & ~(mask >> shift)
            return _new(KnownBits, (width, (known.zero >> shift) | high_zeros,
                                    known.one >> shift))
        if opcode == "ashr" and isinstance(inst.rhs, ConstantInt):
            shift = inst.rhs.value
            if shift >= width:
                return KnownBits.unknown(width)
            known = compute_known_bits(inst.lhs, depth, memo)
            zero = known.zero >> shift
            one = known.one >> shift
            high = mask & ~(mask >> shift)
            if known.zero >> (width - 1):
                zero |= high
            elif known.one >> (width - 1):
                one |= high
            return _new(KnownBits, (width, zero, one))
        if opcode == "urem" and isinstance(inst.rhs, ConstantInt) \
                and inst.rhs.value != 0:
            # Result < divisor: high bits above divisor's top bit are 0.
            top = inst.rhs.value.bit_length()
            return _new(KnownBits, (width, mask & ~((1 << top) - 1), 0))
        return KnownBits.unknown(width)

    if isinstance(inst, CastInst):
        if inst.opcode == "zext":
            src = compute_known_bits(inst.value, depth, memo)
            return _new(KnownBits, (width, src.zero | (mask & ~src.mask),
                                    src.one))
        if inst.opcode == "trunc":
            src = compute_known_bits(inst.value, depth, memo)
            return _new(KnownBits, (width, src.zero & mask, src.one & mask))
        if inst.opcode == "sext":
            src = compute_known_bits(inst.value, depth, memo)
            high = mask & ~src.mask
            if src.zero >> (src.width - 1):
                return _new(KnownBits, (width, src.zero | high, src.one))
            if src.one >> (src.width - 1):
                return _new(KnownBits, (width, src.zero, src.one | high))
            return _new(KnownBits, (width, src.zero, src.one))
        return KnownBits.unknown(width)

    if isinstance(inst, SelectInst):
        return compute_known_bits(inst.true_value, depth, memo).intersect(
            compute_known_bits(inst.false_value, depth, memo))

    if isinstance(inst, PhiNode):
        if memo is not None:
            memo.need(depth + 1)
        merged: Optional[KnownBits] = None
        for incoming_value, _ in inst.incoming():
            if depth >= MAX_DEPTH:
                return KnownBits.unknown(width)
            known = compute_known_bits(incoming_value, depth, memo)
            merged = known if merged is None else merged.intersect(known)
        return merged if merged is not None else KnownBits.unknown(width)

    if isinstance(inst, CallInst):
        base = inst.intrinsic_name()
        if base in ("llvm.umin", "llvm.umax") and len(inst.args) == 2:
            # Common leading bits of both bounds are preserved only in
            # special cases; keep it simple and sound: intersect.
            return compute_known_bits(inst.args[0], depth, memo).intersect(
                compute_known_bits(inst.args[1], depth, memo))
        if base == "llvm.ctpop":
            top = width.bit_length()
            return _new(KnownBits, (width, mask & ~((1 << top) - 1), 0))
        return KnownBits.unknown(width)

    # freeze: facts about the input hold for non-poison inputs, but a
    # poison input may become anything, so claim nothing.  icmp and the
    # rest: nothing tracked.
    return KnownBits.unknown(width)


def _known_bits_addsub(opcode: str, lhs: KnownBits, rhs: KnownBits,
                       width: int) -> KnownBits:
    """Known bits of add/sub over the low bits both operands fully know.

    Deliberately no stronger than "ripple from bit 0 until the first
    unknown operand bit": everything above that prefix is unknown.
    """
    known = (lhs.zero | lhs.one) & (rhs.zero | rhs.one)
    low = ~known & (known + 1)  # 1 << (length of the fully-known prefix)
    low -= 1
    if opcode == "sub":
        # a - b == a + ~b + 1
        total = (lhs.one & low) + (rhs.zero & low) + 1
    else:
        total = (lhs.one & low) + (rhs.one & low)
    return _new(KnownBits, (width, ~total & low, total & low))


def _known_bits_mul(lhs: KnownBits, rhs: KnownBits, width: int) -> KnownBits:
    """Low-bit tracking: trailing zeros add; a fully-known product folds."""
    if lhs.is_constant() and rhs.is_constant():
        return KnownBits.constant(width, lhs.one * rhs.one)
    trailing = min(lhs.count_trailing_known_zeros()
                   + rhs.count_trailing_known_zeros(), width)
    return _new(KnownBits, (width, (1 << trailing) - 1, 0))


# -- derived predicates -------------------------------------------------------


def is_known_non_zero(value: Value, depth: int = 0) -> bool:
    if isinstance(value, ConstantInt):
        return value.value != 0
    if not isinstance(value.type, IntType):
        return False
    known = compute_known_bits(value, depth)
    if known.is_non_zero():
        return True
    if isinstance(value, BinaryOperator) and value.opcode == "or":
        return (is_known_non_zero(value.lhs, depth + 1)
                or is_known_non_zero(value.rhs, depth + 1))
    return False


def is_known_non_negative(value: Value, depth: int = 0,
                          memo: Optional[KnownBitsMemo] = None) -> bool:
    if not isinstance(value.type, IntType):
        return False
    if isinstance(value, CastInst) and value.opcode == "zext":
        return True
    return compute_known_bits(value, depth, memo).is_non_negative()


def compute_num_sign_bits(value: Value, depth: int = 0) -> int:
    """Lower bound on the number of identical top (sign) bits."""
    if not isinstance(value.type, IntType):
        return 1
    width = value.type.width
    if isinstance(value, ConstantInt):
        signed = value.signed_value()
        if signed < 0:
            signed = ~signed
        return width - signed.bit_length()
    if depth >= MAX_DEPTH or not isinstance(value, Instruction):
        return 1
    if isinstance(value, CastInst):
        if value.opcode == "sext":
            gained = width - value.src_type.width
            return gained + compute_num_sign_bits(value.value, depth + 1)
        if value.opcode == "zext":
            gained = width - value.src_type.width
            return max(1, gained)
        return 1
    if isinstance(value, BinaryOperator) and value.opcode == "ashr" \
            and isinstance(value.rhs, ConstantInt) and value.rhs.value < width:
        base = compute_num_sign_bits(value.lhs, depth + 1)
        return min(width, base + value.rhs.value)
    if isinstance(value, SelectInst):
        return min(compute_num_sign_bits(value.true_value, depth + 1),
                   compute_num_sign_bits(value.false_value, depth + 1))
    known = compute_known_bits(value, depth)
    return max(1, known.count_leading_known_zeros(),
               known.count_leading_known_ones())

"""KnownBits and related value tracking, modeled on LLVM's ValueTracking.

The InstCombine-style peephole rules use this to justify transforms
("the top bits are known zero, so this zext-of-trunc is a no-op").
Soundness of this analysis is property-tested against the concrete
interpreter, and every transfer function is pinned exhaustively at
widths 1-4 (``tests/test_knownbits_exhaustive.py``).
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

from ..ir.instructions import Instruction, opcode_table
from ..ir.values import Value

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
        entries = self._entries
        entry = entries[inst] if inst in entries else None
        if entry is not None and depth + entry[1] <= MAX_DEPTH:
            self.hits += 1
            known, height = entry
        elif depth >= MAX_DEPTH:
            known, height = _new(KnownBits, (inst.type.width, 0, 0)), 1
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
    if value.KIND == "int":
        mask = value.type.mask
        constant = value.value
        return _new(KnownBits, (value.type.width, ~constant & mask, constant))
    if not value.type.IS_INTEGER:
        raise ValueError("known bits only defined for integers")
    if not value.IS_INSTRUCTION:
        # Arguments and globals; undef/poison may be folded to anything.
        return _new(KnownBits, (value.type.width, 0, 0))
    if memo is not None:
        return memo.lookup(value, depth)
    if depth >= MAX_DEPTH:
        return _new(KnownBits, (value.type.width, 0, 0))
    return _known_bits_instruction(value, depth, None)


def _known_bits_instruction(inst: Instruction, depth: int,
                            memo: Optional[KnownBitsMemo]) -> KnownBits:
    # depth + 1 is the operands' level.
    return _KNOWN_BITS[inst.opcode](inst, depth + 1, memo)


# -- one transfer function per opcode -----------------------------------------
#
# Each takes the instruction, its operands' depth and the memo.


def _kb_unknown(inst: Instruction, depth: int,
                memo: Optional[KnownBitsMemo]) -> KnownBits:
    # freeze: facts about the input hold for non-poison inputs, but a
    # poison input may become anything, so claim nothing.  icmp and the
    # rest: nothing tracked.
    return _new(KnownBits, (inst.type.width, 0, 0))


def _kb_and(inst, depth, memo):
    operands = inst.operands
    return (compute_known_bits(operands[0], depth, memo)
            & compute_known_bits(operands[1], depth, memo))


def _kb_or(inst, depth, memo):
    operands = inst.operands
    return (compute_known_bits(operands[0], depth, memo)
            | compute_known_bits(operands[1], depth, memo))


def _kb_xor(inst, depth, memo):
    operands = inst.operands
    return (compute_known_bits(operands[0], depth, memo)
            ^ compute_known_bits(operands[1], depth, memo))


def _kb_addsub(inst, depth, memo):
    operands = inst.operands
    return _known_bits_addsub(
        inst.opcode, compute_known_bits(operands[0], depth, memo),
        compute_known_bits(operands[1], depth, memo), inst.type.width)


def _kb_mul(inst, depth, memo):
    operands = inst.operands
    return _known_bits_mul(compute_known_bits(operands[0], depth, memo),
                           compute_known_bits(operands[1], depth, memo),
                           inst.type.width)


def _kb_shl(inst, depth, memo):
    shift_amount = inst.operands[1]
    width = inst.type.width
    if shift_amount.KIND != "int" or shift_amount.value >= width:
        return _new(KnownBits, (width, 0, 0))  # poison; claim nothing
    shift = shift_amount.value
    mask = inst.type.mask
    known = compute_known_bits(inst.operands[0], depth, memo)
    return _new(KnownBits, (
        width, ((known.zero << shift) | ((1 << shift) - 1)) & mask,
        (known.one << shift) & mask))


def _kb_lshr(inst, depth, memo):
    shift_amount = inst.operands[1]
    width = inst.type.width
    if shift_amount.KIND != "int" or shift_amount.value >= width:
        return _new(KnownBits, (width, 0, 0))
    shift = shift_amount.value
    mask = inst.type.mask
    known = compute_known_bits(inst.operands[0], depth, memo)
    high_zeros = mask & ~(mask >> shift)
    return _new(KnownBits, (width, (known.zero >> shift) | high_zeros,
                            known.one >> shift))


def _kb_ashr(inst, depth, memo):
    shift_amount = inst.operands[1]
    width = inst.type.width
    if shift_amount.KIND != "int" or shift_amount.value >= width:
        return _new(KnownBits, (width, 0, 0))
    shift = shift_amount.value
    mask = inst.type.mask
    known = compute_known_bits(inst.operands[0], depth, memo)
    zero = known.zero >> shift
    one = known.one >> shift
    high = mask & ~(mask >> shift)
    if known.zero >> (width - 1):
        zero |= high
    elif known.one >> (width - 1):
        one |= high
    return _new(KnownBits, (width, zero, one))


def _kb_urem(inst, depth, memo):
    divisor = inst.operands[1]
    width = inst.type.width
    if divisor.KIND != "int" or divisor.value == 0:
        return _new(KnownBits, (width, 0, 0))
    # Result < divisor: high bits above divisor's top bit are 0.
    top = divisor.value.bit_length()
    return _new(KnownBits, (width, inst.type.mask & ~((1 << top) - 1), 0))


def _kb_zext(inst, depth, memo):
    src = compute_known_bits(inst.operands[0], depth, memo)
    return _new(KnownBits, (inst.type.width,
                            src.zero | (inst.type.mask & ~src.mask), src.one))


def _kb_trunc(inst, depth, memo):
    src = compute_known_bits(inst.operands[0], depth, memo)
    mask = inst.type.mask
    return _new(KnownBits, (inst.type.width, src.zero & mask, src.one & mask))


def _kb_sext(inst, depth, memo):
    src = compute_known_bits(inst.operands[0], depth, memo)
    width = inst.type.width
    high = inst.type.mask & ~src.mask
    if src.zero >> (src.width - 1):
        return _new(KnownBits, (width, src.zero | high, src.one))
    if src.one >> (src.width - 1):
        return _new(KnownBits, (width, src.zero, src.one | high))
    return _new(KnownBits, (width, src.zero, src.one))


def _kb_select(inst, depth, memo):
    operands = inst.operands
    return compute_known_bits(operands[1], depth, memo).intersect(
        compute_known_bits(operands[2], depth, memo))


def _kb_phi(inst, depth, memo):
    if memo is not None:
        memo.need(depth + 1)
    merged: Optional[KnownBits] = None
    for incoming_value in inst.operands[::2]:
        if depth >= MAX_DEPTH:
            return _new(KnownBits, (inst.type.width, 0, 0))
        known = compute_known_bits(incoming_value, depth, memo)
        merged = known if merged is None else merged.intersect(known)
    return merged if merged is not None else _new(KnownBits,
                                                  (inst.type.width, 0, 0))


def _kb_call(inst, depth, memo):
    base = inst.intrinsic_name()
    width = inst.type.width
    if base in ("llvm.umin", "llvm.umax"):
        args = inst.args
        if len(args) == 2:
            # Common leading bits of both bounds are preserved only in
            # special cases; keep it simple and sound: intersect.
            return compute_known_bits(args[0], depth, memo).intersect(
                compute_known_bits(args[1], depth, memo))
    elif base == "llvm.ctpop":
        top = width.bit_length()
        return _new(KnownBits, (width, inst.type.mask & ~((1 << top) - 1), 0))
    return _new(KnownBits, (width, 0, 0))


_KNOWN_BITS = opcode_table(_kb_unknown, {
    "and": _kb_and, "or": _kb_or, "xor": _kb_xor,
    "add": _kb_addsub, "sub": _kb_addsub, "mul": _kb_mul,
    "shl": _kb_shl, "lshr": _kb_lshr, "ashr": _kb_ashr, "urem": _kb_urem,
    "zext": _kb_zext, "trunc": _kb_trunc, "sext": _kb_sext,
    "select": _kb_select, "phi": _kb_phi, "call": _kb_call,
})


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
    if value.KIND == "int":
        return value.value != 0
    if not value.type.IS_INTEGER:
        return False
    known = compute_known_bits(value, depth)
    if known.is_non_zero():
        return True
    if value.KIND == "binop" and value.opcode == "or":
        return (is_known_non_zero(value.operands[0], depth + 1)
                or is_known_non_zero(value.operands[1], depth + 1))
    return False


def is_known_non_negative(value: Value, depth: int = 0,
                          memo: Optional[KnownBitsMemo] = None) -> bool:
    if not value.type.IS_INTEGER:
        return False
    if value.KIND == "cast" and value.opcode == "zext":
        return True
    return compute_known_bits(value, depth, memo).is_non_negative()


def compute_num_sign_bits(value: Value, depth: int = 0) -> int:
    """Lower bound on the number of identical top (sign) bits."""
    if not value.type.IS_INTEGER:
        return 1
    width = value.type.width
    if value.KIND == "int":
        signed = value.signed_value()
        if signed < 0:
            signed = ~signed
        return width - signed.bit_length()
    if depth >= MAX_DEPTH or not value.IS_INSTRUCTION:
        return 1
    kind = value.KIND
    if kind == "cast":
        if value.opcode == "sext":
            gained = width - value.operands[0].type.width
            return gained + compute_num_sign_bits(value.operands[0], depth + 1)
        if value.opcode == "zext":
            gained = width - value.operands[0].type.width
            return max(1, gained)
        return 1
    if kind == "binop" and value.opcode == "ashr":
        lhs, rhs = value.operands
        if rhs.KIND == "int" and rhs.value < width:
            base = compute_num_sign_bits(lhs, depth + 1)
            return min(width, base + rhs.value)
    if kind == "select":
        return min(compute_num_sign_bits(value.operands[1], depth + 1),
                   compute_num_sign_bits(value.operands[2], depth + 1))
    known = compute_known_bits(value, depth)
    return max(1, known.count_leading_known_zeros(),
               known.count_leading_known_ones())

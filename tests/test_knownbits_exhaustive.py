"""Exhaustive pins on ``repro.analysis.knownbits`` at widths 1-4.

* Every transfer function is sound: for every pair of consistent
  abstract inputs and every opcode ``_known_bits_instruction`` handles,
  the result admits the concrete result of every admitted input pair.
* The closed forms (add/sub prefix arithmetic, trailing-zero /
  leading-zero / leading-one counts, the sign-bit count) equal the
  per-bit loops they replaced; the loops live on below as the reference.
* ``KnownBits`` is immutable.
* A :class:`KnownBitsMemo` returns, at every depth, what the uncached
  recursion returns there.
"""

import itertools

import pytest

from repro.analysis.knownbits import (MAX_DEPTH, KnownBits, KnownBitsMemo,
                                      _known_bits_addsub,
                                      compute_known_bits,
                                      compute_num_sign_bits)
from repro.ir import Module
from repro.ir.basicblock import BasicBlock
from repro.ir.instructions import (BinaryOperator, CallInst, CastInst,
                                   PhiNode, SelectInst)
from repro.ir.intrinsics import declare_intrinsic
from repro.ir.types import IntType
from repro.ir.values import Argument, ConstantInt

WIDTHS = (1, 2, 3, 4)


def abstract_values(width):
    """Every consistent (zero, one) pair of ``width`` bits."""
    mask = (1 << width) - 1
    return [(zero, one) for zero in range(mask + 1)
            for one in range(mask + 1) if not zero & one]


def concretizations(width, zero, one):
    return [value for value in range(1 << width)
            if not value & zero and value & one == one]


def operand(width, zero, one):
    """An instruction whose known bits are exactly ``(zero, one)``:
    ``or (and %x, ~zero), one``."""
    ty = IntType(width)
    masked = BinaryOperator("and", Argument(ty, "x"),
                            ConstantInt(ty, ~zero & ty.mask))
    value = BinaryOperator("or", masked, ConstantInt(ty, one))
    known = compute_known_bits(value)
    assert (known.width, known.zero, known.one) == (width, zero, one)
    return value


OPERANDS = {width: {pair: operand(width, *pair)
                    for pair in abstract_values(width)}
            for width in WIDTHS}


def signed(value, width):
    return value - (1 << width) if value >> (width - 1) else value


BINARY = {
    "and": lambda a, b, w: a & b,
    "or": lambda a, b, w: a | b,
    "xor": lambda a, b, w: a ^ b,
    "add": lambda a, b, w: (a + b) & ((1 << w) - 1),
    "sub": lambda a, b, w: (a - b) & ((1 << w) - 1),
    "mul": lambda a, b, w: (a * b) & ((1 << w) - 1),
}
BY_CONSTANT = {
    "shl": lambda a, c, w: (a << c) & ((1 << w) - 1),
    "lshr": lambda a, c, w: a >> c,
    "ashr": lambda a, c, w: (signed(a, w) >> c) & ((1 << w) - 1),
    "urem": lambda a, c, w: a % c,
}
CASTS = {
    "zext": lambda a, src, dst: a,
    "trunc": lambda a, src, dst: a & ((1 << dst) - 1),
    "sext": lambda a, src, dst: signed(a, src) & ((1 << dst) - 1),
}
MINMAX = {"llvm.umin": min, "llvm.umax": max}


def assert_admits_all(inst, results, context):
    known = compute_known_bits(inst)
    assert known.width == inst.type.width
    assert not known.zero & known.one
    for result in results:
        assert known.admits(result), (context, known, result)


# -- soundness of every transfer function ------------------------------------


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("opcode", sorted(BINARY))
def test_binary_transfer_is_sound(opcode, width):
    concrete = BINARY[opcode]
    for (lhs, lhs_value), (rhs, rhs_value) in itertools.product(
            OPERANDS[width].items(), repeat=2):
        assert_admits_all(
            BinaryOperator(opcode, lhs_value, rhs_value),
            [concrete(a, b, width)
             for a in concretizations(width, *lhs)
             for b in concretizations(width, *rhs)],
            (opcode, width, lhs, rhs))


@pytest.mark.parametrize("width", WIDTHS)
@pytest.mark.parametrize("opcode", sorted(BY_CONSTANT))
def test_transfer_by_constant_is_sound(opcode, width):
    concrete = BY_CONSTANT[opcode]
    ty = IntType(width)
    # Shift amounts up to and past the width (poison: anything goes, so
    # nothing may be claimed that a later fold could contradict); every
    # non-zero divisor.
    constants = range(1, 1 << width) if opcode == "urem" \
        else range(0, width + 2)
    for constant in constants:
        if constant > ty.mask:
            continue
        defined = opcode == "urem" or constant < width
        for lhs, lhs_value in OPERANDS[width].items():
            inst = BinaryOperator(opcode, lhs_value,
                                  ConstantInt(ty, constant))
            if not defined:
                known = compute_known_bits(inst)
                assert (known.zero, known.one) == (0, 0)
                continue
            assert_admits_all(
                inst, [concrete(a, constant, width)
                       for a in concretizations(width, *lhs)],
                (opcode, width, lhs, constant))


@pytest.mark.parametrize("opcode", sorted(CASTS))
def test_cast_transfer_is_sound(opcode):
    concrete = CASTS[opcode]
    for src, dst in itertools.permutations(WIDTHS + (5,), 2):
        if (dst < src) != (opcode == "trunc") or src not in OPERANDS:
            continue
        for known, value in OPERANDS[src].items():
            assert_admits_all(
                CastInst(opcode, value, IntType(dst)),
                [concrete(a, src, dst)
                 for a in concretizations(src, *known)],
                (opcode, src, dst, known))


@pytest.mark.parametrize("width", WIDTHS)
def test_select_and_minmax_transfer_is_sound(width):
    module = Module("pins")
    condition = Argument(IntType(1), "c")
    callees = {base: declare_intrinsic(module, base, width)
               for base in MINMAX}
    for (lhs, lhs_value), (rhs, rhs_value) in itertools.product(
            OPERANDS[width].items(), repeat=2):
        lhs_values = concretizations(width, *lhs)
        rhs_values = concretizations(width, *rhs)
        assert_admits_all(SelectInst(condition, lhs_value, rhs_value),
                          lhs_values + rhs_values, ("select", lhs, rhs))
        for base, concrete in MINMAX.items():
            assert_admits_all(
                CallInst(callees[base], [lhs_value, rhs_value]),
                [concrete(a, b) for a in lhs_values for b in rhs_values],
                (base, width, lhs, rhs))


@pytest.mark.parametrize("width", WIDTHS)
def test_ctpop_transfer_is_sound(width):
    callee = declare_intrinsic(Module("pins"), "llvm.ctpop", width)
    for known, value in OPERANDS[width].items():
        assert_admits_all(
            CallInst(callee, [value]),
            [bin(a).count("1") for a in concretizations(width, *known)],
            ("ctpop", width, known))


# -- the per-bit loops the closed forms replaced (the reference) -------------


def loop_known_bits_addsub(opcode, lhs, rhs, width):
    """Ripple known bits through add/sub from the bottom until uncertain."""
    mask = (1 << width) - 1
    if opcode == "sub":
        # a - b == a + ~b + 1; rewrite rhs and start with carry-in 1.
        rhs = KnownBits(width, zero=rhs.one, one=rhs.zero)
        carry = True
    else:
        carry = False
    zero = one = 0
    carry_known = True
    for bit in range(width):
        lhs_known = bool((lhs.zero | lhs.one) >> bit & 1)
        rhs_known = bool((rhs.zero | rhs.one) >> bit & 1)
        if not (lhs_known and rhs_known and carry_known):
            carry_known = False
            continue
        lhs_bit = bool(lhs.one >> bit & 1)
        rhs_bit = bool(rhs.one >> bit & 1)
        total = int(lhs_bit) + int(rhs_bit) + int(carry)
        if total & 1:
            one |= 1 << bit
        else:
            zero |= 1 << bit
        carry = total >= 2
    return KnownBits(width, zero=zero & mask, one=one & mask)


def loop_trailing_known_zeros(known):
    count = 0
    for bit in range(known.width):
        if known.zero >> bit & 1:
            count += 1
        else:
            break
    return count


def loop_count_leading_known_zeros(known):
    count = 0
    for bit in range(known.width - 1, -1, -1):
        if known.zero >> bit & 1:
            count += 1
        else:
            break
    return count


def loop_num_sign_bits(known):
    width = known.width
    count = 1
    top = width - 1
    if known.zero >> top & 1:
        count = loop_count_leading_known_zeros(known)
    elif known.one >> top & 1:
        count = 0
        for bit in range(width - 1, -1, -1):
            if known.one >> bit & 1:
                count += 1
            else:
                break
    return max(1, count)


@pytest.mark.parametrize("width", WIDTHS + (7,))
def test_closed_forms_equal_the_loops(width):
    values = [KnownBits(width, zero, one)
              for zero, one in abstract_values(width)]
    for known in values:
        assert known.count_trailing_known_zeros() == \
            loop_trailing_known_zeros(known)
        assert known.count_leading_known_zeros() == \
            loop_count_leading_known_zeros(known)
    if width > 4:
        values = values[::37]
    for opcode in ("add", "sub"):
        for lhs, rhs in itertools.product(values, repeat=2):
            assert _known_bits_addsub(opcode, lhs, rhs, width) == \
                loop_known_bits_addsub(opcode, lhs, rhs, width)


@pytest.mark.parametrize("width", WIDTHS)
def test_sign_bit_count_equals_the_loop(width):
    for (zero, one), value in OPERANDS[width].items():
        assert compute_num_sign_bits(value) == \
            loop_num_sign_bits(KnownBits(width, zero, one))


def test_wide_addsub_equals_the_loop():
    # Beyond the exhaustive widths: carries across a 64-bit prefix, a
    # fully known pair, and an unknown bit 0.
    width = 64
    mask = (1 << width) - 1
    cases = [
        (KnownBits.constant(width, mask), KnownBits.constant(width, 1)),
        (KnownBits.constant(width, 1 << 63), KnownBits.constant(width, 1 << 63)),
        (KnownBits(width, zero=0xFF00, one=0x00FF),
         KnownBits(width, zero=0x0F0F, one=0xF0F0)),
        (KnownBits(width, zero=mask & ~1), KnownBits.constant(width, 5)),
        (KnownBits.unknown(width), KnownBits.constant(width, 0)),
    ]
    for lhs, rhs in cases:
        for opcode in ("add", "sub"):
            assert _known_bits_addsub(opcode, lhs, rhs, width) == \
                loop_known_bits_addsub(opcode, lhs, rhs, width)


# -- KnownBits is immutable --------------------------------------------------


def test_known_bits_cannot_be_changed():
    known = KnownBits(8, zero=0b1, one=0b10)
    for name in ("width", "zero", "one", "extra"):
        with pytest.raises(AttributeError):
            setattr(known, name, 0)
    assert (known.width, known.zero, known.one) == (8, 1, 2)
    assert not hasattr(known, "__dict__")
    with pytest.raises(ValueError):
        KnownBits(8, zero=3, one=1)
    # The constructor still masks what it is given.
    assert KnownBits(4, zero=0xF0, one=0x0F) == KnownBits(4, zero=0, one=0xF)


# -- the memo returns what the uncached recursion returns --------------------


def chain(length, width=8):
    """``length`` instructions, each the ``add`` of the one before and 2,
    on top of an argument whose low bit is known zero."""
    ty = IntType(width)
    value = BinaryOperator("and", Argument(ty, "x"), ConstantInt(ty, 0xFE))
    values = [value]
    for _ in range(length - 1):
        value = BinaryOperator("add", value, ConstantInt(ty, 2))
        values.append(value)
    return values


def assert_memo_matches_uncached(values, memo):
    for value, depth in itertools.product(values, range(MAX_DEPTH + 2)):
        assert compute_known_bits(value, depth, memo) == \
            compute_known_bits(value, depth), (values.index(value), depth)


def test_memo_equals_uncached_at_every_depth():
    values = chain(2 * MAX_DEPTH)
    for first in (values, values[::-1]):
        # Bottom-up the memo fills with exact entries that upper values
        # may use only where their own depth leaves room; top-down the
        # first results are cut by the cap and must not be stored.
        memo = KnownBitsMemo()
        for value in first:
            compute_known_bits(value, 0, memo)
        for _ in range(2):
            assert_memo_matches_uncached(values, memo)
    assert memo.hits > 0


def test_memo_counts_a_phi_one_level_deeper():
    # A phi gives up when *its operands'* level is the cap, even if they
    # are constants: its entry must not answer at depth MAX_DEPTH - 1.
    ty = IntType(8)
    phi = PhiNode(ty)
    phi.add_incoming(ConstantInt(ty, 4), BasicBlock("left"))
    phi.add_incoming(ConstantInt(ty, 12), BasicBlock("right"))
    user = BinaryOperator("or", phi, ConstantInt(ty, 1))
    memo = KnownBitsMemo()
    assert compute_known_bits(phi, 0, memo).zero == 0b11110011
    assert_memo_matches_uncached([phi, user], memo)
    assert compute_known_bits(phi, MAX_DEPTH - 1, memo) == \
        KnownBits.unknown(8)


def test_memo_clear_forgets():
    values = chain(3)
    memo = KnownBitsMemo()
    before = compute_known_bits(values[-1], 0, memo)
    # Change the IR under the memo: the stale answer until it is cleared.
    values[1].set_operand(1, ConstantInt(IntType(8), 3))
    assert compute_known_bits(values[-1], 0, memo) == before
    memo.clear()
    assert compute_known_bits(values[-1], 0, memo) == \
        compute_known_bits(values[-1]) != before

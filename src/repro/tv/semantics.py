"""Value-level instruction semantics, written once for both TV engines.

Every rule here maps resolved runtime values (ints, :class:`Pointer`,
``POISON``) to a result or raises :class:`UBError`; none reads memory,
the oracle or a frame.  The tree-walking
:class:`~repro.tv.interp.Interpreter` calls these per execution and the
batch engine (:mod:`repro.tv.batch`) per lane, so the two engines share
one definition of each binary op, icmp, cast, intrinsic and
``llvm.assume`` check.  What needs per-run state (memory, oracle
choices, call counters) stays on the ``Interpreter``.

Because the engines share these rules, comparing them cannot catch a
mistake here.  The independent check is the constant folder
(:mod:`repro.opt.fold`), a separate implementation that
``tests/test_semantics_pins.py`` compares with this module over every
input at widths 1-4.

The factories (``binary_op``, ``icmp_op``, ``cast_op``) take only static
facts and return a function of the operand values; they are memoized so
the tree-walker can call them per execution.
"""

from __future__ import annotations

import operator
import zlib
from functools import lru_cache
from typing import Callable, Iterable, List, Sequence, Tuple

from ..ir.instructions import SIGNED_PREDICATES
from ..ir.types import IntType, Type
from .domain import (
    POISON,
    Pointer,
    RuntimeValue,
    fits_signed,
    saturate,
    to_signed,
    to_unsigned,
    trunc_div,
)
from .memory import bytes_to_int, int_to_bytes

BinaryFn = Callable[[RuntimeValue, RuntimeValue], RuntimeValue]


class UBError(Exception):
    """Execution hit undefined behavior."""

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


@lru_cache(maxsize=8192)
def block_address(block: str) -> int:
    """Deterministic numeric address for a logical block (same on both
    sides of a refinement check, so pointer ordering is comparable).

    Memoized: the hot loop recomputes addresses for the same handful of
    block ids on every pointer comparison, so the crc32 is paid once per
    id.  Bounded because ``raw:{N}`` ids are open-ended.
    """
    if block == "null":
        return 0
    return 0x10000 + (zlib.crc32(block.encode()) & 0xFFFF) * 64


def pointer_address(pointer: Pointer) -> int:
    return block_address(pointer.block) + pointer.offset


# -- binary operators ---------------------------------------------------------


@lru_cache(maxsize=1024)
def binary_op(opcode: str, width: int, nuw: bool, nsw: bool, exact: bool) -> BinaryFn:
    """The function computing one binary op on resolved operands.

    Division by zero (or by a poison divisor) and signed division
    overflow raise :class:`UBError`; every other misuse yields poison.
    """
    mask = (1 << width) - 1
    int_min = -(1 << (width - 1))

    if opcode == "add":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            total = lhs + rhs
            if nuw and total > mask:
                return POISON
            if nsw and not fits_signed(
                to_signed(lhs, width) + to_signed(rhs, width), width
            ):
                return POISON
            return total & mask

        return fn
    if opcode == "sub":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            difference = lhs - rhs
            if nuw and difference < 0:
                return POISON
            if nsw and not fits_signed(
                to_signed(lhs, width) - to_signed(rhs, width), width
            ):
                return POISON
            return difference & mask

        return fn
    if opcode == "mul":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            product = lhs * rhs
            if nuw and product > mask:
                return POISON
            if nsw and not fits_signed(
                to_signed(lhs, width) * to_signed(rhs, width), width
            ):
                return POISON
            return product & mask

        return fn
    if opcode in ("udiv", "sdiv", "urem", "srem"):
        signed = opcode[0] == "s"
        remainder = opcode.endswith("rem")

        def fn(lhs, rhs):
            # Division by zero is immediate UB even with poison on the
            # other side, so check the divisor first.
            if rhs is POISON:
                raise UBError(f"{opcode} by poison divisor")
            if rhs == 0:
                raise UBError(f"{opcode} by zero")
            if lhs is POISON:
                return POISON
            if not signed:
                if remainder:
                    return lhs % rhs
                if exact and lhs % rhs != 0:
                    return POISON
                return lhs // rhs
            signed_lhs = to_signed(lhs, width)
            signed_rhs = to_signed(rhs, width)
            if signed_lhs == int_min and signed_rhs == -1:
                raise UBError(f"{opcode} overflow")
            quotient = trunc_div(signed_lhs, signed_rhs)
            if remainder:
                return to_unsigned(signed_lhs - quotient * signed_rhs, width)
            if exact and signed_lhs - quotient * signed_rhs != 0:
                return POISON
            return to_unsigned(quotient, width)

        return fn
    if opcode == "shl":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON or rhs >= width:
                return POISON
            full = lhs << rhs
            result = full & mask
            if nuw and full > mask:
                return POISON
            if nsw and to_signed(result, width) != to_signed(lhs, width) * (1 << rhs):
                return POISON
            return result

        return fn
    if opcode in ("lshr", "ashr"):
        arithmetic = opcode == "ashr"

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON or rhs >= width:
                return POISON
            if exact and lhs & ((1 << rhs) - 1):
                return POISON
            if arithmetic:
                return to_unsigned(to_signed(lhs, width) >> rhs, width)
            return lhs >> rhs

        return fn
    if opcode == "and":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            return lhs & rhs

        return fn
    if opcode == "or":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            return lhs | rhs

        return fn
    if opcode == "xor":

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            return lhs ^ rhs

        return fn

    def fn(lhs, rhs):  # constructor-validated; kept for robustness
        if lhs is POISON or rhs is POISON:
            return POISON
        raise UBError(f"unsupported binary opcode {opcode}")

    return fn


# -- comparisons and casts ----------------------------------------------------

ICMP_COMPARATORS = {
    "eq": operator.eq,
    "ne": operator.ne,
    "ugt": operator.gt,
    "uge": operator.ge,
    "ult": operator.lt,
    "ule": operator.le,
    "sgt": operator.gt,
    "sge": operator.ge,
    "slt": operator.lt,
    "sle": operator.le,
}


@lru_cache(maxsize=1024)
def icmp_op(predicate: str, lhs_type: Type, rhs_type: Type) -> BinaryFn:
    """The function computing ``icmp predicate`` on resolved operands.

    Integer-typed operands only ever hold ints or poison at run time
    (the cast set has no inttoptr), so their comparison never looks for
    pointers; otherwise pointers compare by :func:`pointer_address` as
    64-bit integers.
    """
    compare = ICMP_COMPARATORS[predicate]
    signed = predicate in SIGNED_PREDICATES
    if isinstance(lhs_type, IntType) and isinstance(rhs_type, IntType):
        width = lhs_type.width

        def fn(lhs, rhs):
            if lhs is POISON or rhs is POISON:
                return POISON
            if signed:
                return int(compare(to_signed(lhs, width), to_signed(rhs, width)))
            return int(compare(lhs, rhs))

        return fn
    width = lhs_type.width if isinstance(lhs_type, IntType) else 64

    def fn(lhs, rhs):
        if lhs is POISON or rhs is POISON:
            return POISON
        bits = width
        if isinstance(lhs, Pointer) or isinstance(rhs, Pointer):
            if isinstance(lhs, Pointer):
                lhs = pointer_address(lhs)
            if isinstance(rhs, Pointer):
                rhs = pointer_address(rhs)
            bits = 64
        if signed:
            return int(compare(to_signed(lhs, bits), to_signed(rhs, bits)))
        return int(compare(lhs, rhs))

    return fn


@lru_cache(maxsize=1024)
def cast_op(
    opcode: str, src_width: int, dst_width: int
) -> Callable[[RuntimeValue], RuntimeValue]:
    """The function computing one integer cast on a resolved operand."""
    if opcode == "trunc":
        mask = (1 << dst_width) - 1

        def fn(value):
            return POISON if value is POISON else value & mask

        return fn
    if opcode == "zext":

        def fn(value):
            return value

        return fn
    if opcode == "sext":

        def fn(value):
            if value is POISON:
                return POISON
            return to_unsigned(to_signed(value, src_width), dst_width)

        return fn

    def fn(value):  # constructor-validated; kept for robustness
        if value is POISON:
            return POISON
        raise UBError(f"unsupported cast {opcode}")

    return fn


# -- intrinsics ---------------------------------------------------------------


def assume(
    condition: RuntimeValue,
    bundles: Iterable[Tuple[str, List[RuntimeValue]]],
) -> None:
    """``llvm.assume``: UB unless ``condition`` is true and every bundle
    holds.  ``bundles`` yields ``(tag, operands)`` lazily, so a bundle's
    operands are resolved only once the checks before it have passed."""
    if condition is POISON:
        raise UBError("assume of poison")
    if condition != 1:
        raise UBError("assume of false")
    for tag, operands in bundles:
        if tag == "align" and len(operands) == 2:
            pointer, align = operands
            if pointer is POISON or align is POISON:
                raise UBError("assume align on poison")
            if isinstance(pointer, Pointer) and align:
                if pointer_address(pointer) % align != 0:
                    raise UBError("assume align violated")
        elif tag == "nonnull" and operands:
            pointer = operands[0]
            if isinstance(pointer, Pointer) and pointer.is_null():
                raise UBError("assume nonnull violated")


def evaluate_intrinsic(
    base: str, name: str, width: int, args: Sequence[RuntimeValue]
) -> RuntimeValue:
    """A (non-assume) intrinsic call on resolved arguments: poison if
    any argument is poison.  ``width`` is the result width (0 if void)."""
    for value in args:
        if value is POISON:
            return POISON
    mask = (1 << width) - 1
    if base in ("llvm.smax", "llvm.smin"):
        lhs = to_signed(args[0], width)
        rhs = to_signed(args[1], width)
        chosen = max(lhs, rhs) if base.endswith("smax") else min(lhs, rhs)
        return to_unsigned(chosen, width)
    if base in ("llvm.umax", "llvm.umin"):
        return max(args[0], args[1]) if base.endswith("umax") else min(args[0], args[1])
    if base == "llvm.abs":
        value = to_signed(args[0], width)
        if value == -(1 << (width - 1)):
            if args[1] == 1:
                return POISON
            return to_unsigned(value, width)
        return abs(value)
    if base == "llvm.ctpop":
        return bin(args[0]).count("1")
    if base in ("llvm.ctlz", "llvm.cttz"):
        if args[0] == 0:
            return POISON if args[1] == 1 else width
        if base == "llvm.ctlz":
            return width - args[0].bit_length()
        return (args[0] & -args[0]).bit_length() - 1
    if base == "llvm.bswap":
        size = width // 8
        data = int_to_bytes(args[0], size)
        return bytes_to_int(list(reversed(data)))
    if base == "llvm.bitreverse":
        return int(format(args[0], f"0{width}b")[::-1], 2)
    if base == "llvm.sadd.sat":
        total = to_signed(args[0], width) + to_signed(args[1], width)
        return saturate(total, width, signed=True)
    if base == "llvm.ssub.sat":
        total = to_signed(args[0], width) - to_signed(args[1], width)
        return saturate(total, width, signed=True)
    if base == "llvm.uadd.sat":
        return saturate(args[0] + args[1], width, signed=False)
    if base == "llvm.usub.sat":
        return saturate(args[0] - args[1], width, signed=False)
    if base in ("llvm.fshl", "llvm.fshr"):
        amount = args[2] % width
        concat = (args[0] << width) | args[1]
        if base.endswith("fshl"):
            return (concat >> (width - amount)) & mask if amount else args[0]
        return (concat >> amount) & mask if amount else args[1]
    if base == "llvm.umul.with.overflow.bit":
        return int(args[0] * args[1] > mask)
    raise UBError(f"unsupported intrinsic {name}")

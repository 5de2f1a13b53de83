"""Exhaustive pins: the validator's instruction semantics vs the folder.

Both TV engines run :mod:`repro.tv.semantics`, so comparing the engines
cannot catch a mistake in it.  :mod:`repro.opt.fold` is a separate
implementation of the same rules (``repro.opt`` imports nothing from
``repro.tv``: ``tests/test_layering.py``).  These tests compare the two
over every input at widths 1-4, poison included: a fold must equal the
semantics, and must decline (return ``None``) exactly where the
semantics raise :class:`UBError`, because folding immediate UB away
would hide it from the validator.
"""

import itertools

import pytest

from repro.ir import ConstantInt, IntType, PoisonValue
from repro.ir.instructions import (BINARY_OPCODES, CAST_OPCODES,
                                   EXACT_FLAG_OPCODES, ICMP_PREDICATES,
                                   WRAPPING_FLAG_OPCODES)
from repro.ir.intrinsics import INTEGER_INTRINSICS
from repro.opt.fold import fold_binary, fold_cast, fold_icmp, fold_intrinsic
from repro.tv import POISON
from repro.tv.semantics import (UBError, binary_op, cast_op,
                                evaluate_intrinsic, icmp_op)

WIDTHS = (1, 2, 3, 4)

# The intrinsics fold_intrinsic folds; the i1 flag argument of those
# that take one (is_int_min_poison / is_zero_poison) comes second.
FOLDED_INTRINSICS = (
    "llvm.smax", "llvm.smin", "llvm.umax", "llvm.umin",
    "llvm.uadd.sat", "llvm.usub.sat", "llvm.sadd.sat", "llvm.ssub.sat",
    "llvm.abs", "llvm.ctpop", "llvm.ctlz", "llvm.cttz",
)
WITH_I1_FLAG = ("llvm.abs", "llvm.ctlz", "llvm.cttz")


def values(width):
    """Every runtime value of ``iN``, and poison."""
    return list(range(1 << width)) + [POISON]


def constant(value, width):
    if value is POISON:
        return PoisonValue(IntType(width))
    return ConstantInt(IntType(width), value)


def semantics_answer(rule, *args):
    """What the validator computes: a runtime value, or ``UBError``."""
    try:
        return rule(*args)
    except UBError:
        return UBError


def fold_answer(result):
    """The folder's result in the same terms (declining stands for UB)."""
    if result is None:
        return UBError
    if isinstance(result, PoisonValue):
        return POISON
    return result.value


def flag_subsets(opcode):
    """Every (nuw, nsw, exact) combination ``opcode`` accepts."""
    if opcode in WRAPPING_FLAG_OPCODES:
        return [(nuw, nsw, False)
                for nuw, nsw in itertools.product((False, True), repeat=2)]
    if opcode in EXACT_FLAG_OPCODES:
        return [(False, False, False), (False, False, True)]
    return [(False, False, False)]


def legal_casts():
    for opcode in CAST_OPCODES:
        for src, dst in itertools.product(WIDTHS, repeat=2):
            if (src > dst) if opcode == "trunc" else (src < dst):
                yield opcode, src, dst


@pytest.mark.parametrize("opcode", BINARY_OPCODES)
def test_binary_folds_equal_the_semantics(opcode):
    wrong = []
    for width in WIDTHS:
        for nuw, nsw, exact in flag_subsets(opcode):
            rule = binary_op(opcode, width, nuw, nsw, exact)
            for lhs, rhs in itertools.product(values(width), repeat=2):
                want = semantics_answer(rule, lhs, rhs)
                got = fold_answer(fold_binary(
                    opcode, constant(lhs, width), constant(rhs, width), width,
                    nuw=nuw, nsw=nsw, exact=exact))
                if got != want:
                    wrong.append((width, nuw, nsw, exact, lhs, rhs, want, got))
    assert wrong == []


@pytest.mark.parametrize("predicate", ICMP_PREDICATES)
def test_icmp_folds_equal_the_semantics(predicate):
    wrong = []
    for width in WIDTHS:
        rule = icmp_op(predicate, IntType(width), IntType(width))
        for lhs, rhs in itertools.product(values(width), repeat=2):
            want = semantics_answer(rule, lhs, rhs)
            got = fold_answer(fold_icmp(
                predicate, constant(lhs, width), constant(rhs, width), width))
            if got != want:
                wrong.append((width, lhs, rhs, want, got))
    assert wrong == []


def test_cast_folds_equal_the_semantics():
    wrong = []
    casts = list(legal_casts())
    assert len(casts) == 18
    for opcode, src, dst in casts:
        rule = cast_op(opcode, src, dst)
        for value in values(src):
            want = semantics_answer(rule, value)
            got = fold_answer(fold_cast(opcode, constant(value, src), src, dst))
            if got != want:
                wrong.append((opcode, src, dst, value, want, got))
    assert wrong == []


@pytest.mark.parametrize("base", FOLDED_INTRINSICS)
def test_intrinsic_folds_equal_the_semantics(base):
    arity = INTEGER_INTRINSICS[base].num_args
    wrong = []
    for width in WIDTHS:
        widths = [width] * arity
        if base in WITH_I1_FLAG:
            widths[1] = 1
        for args in itertools.product(*(values(w) for w in widths)):
            want = semantics_answer(
                evaluate_intrinsic, base, base, width, list(args))
            got = fold_answer(fold_intrinsic(
                base, [constant(v, w) for v, w in zip(args, widths)], width))
            if got != want:
                wrong.append((width, args, want, got))
    assert wrong == []


def test_every_folded_intrinsic_is_pinned():
    # An intrinsic the folder learns to fold must join the table above.
    for base, info in INTEGER_INTRINSICS.items():
        if base in FOLDED_INTRINSICS:
            continue
        width = info.valid_widths[0] if info.valid_widths else 4
        args = [ConstantInt(IntType(width), 1)] * info.num_args
        assert fold_intrinsic(base, args, width) is None, base


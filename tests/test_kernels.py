"""Exhaustive pins: every batch kernel against the semantics it inlines.

The batch engine runs flagless add/sub/mul/and/or/xor, add/sub under
every nuw/nsw subset and all ten integer icmp predicates through kernels
instantiated from one source template (:mod:`repro.tv.batch`), with the
op computed inline instead of by calling :mod:`repro.tv.semantics`.
Each instance is run here in every operand shape over every operand pair
at widths 1-4, poison and unset operands included.  A kernel must give
what ``binary_op`` / ``icmp_op`` give, and for an unset operand the UB
detail of that operand (the left one first), as the tree-walker does.
"""

import itertools

import pytest

from repro.ir import IntType
from repro.ir.instructions import BINARY_OPCODES, ICMP_PREDICATES
from repro.tv import POISON
from repro.tv.batch import (_CONST, _SLOT, _UNSET, _BatchContext, _kernel,
                            _kernel_step)
from repro.tv.semantics import binary_op, icmp_op

WIDTHS = (1, 2, 3, 4)
SHAPES = ((_SLOT, _SLOT), (_SLOT, _CONST), (_CONST, _SLOT))
FLAGS = tuple(itertools.product((False, True), repeat=2))
LHS_REASON = "use of unevaluated value %x"
RHS_REASON = "use of unevaluated value %y"


def kernel_keys():
    """Every (op, nuw, nsw) some kernel covers."""
    keys = [(opcode, nuw, nsw) for opcode in BINARY_OPCODES
            for nuw, nsw in FLAGS if _kernel(opcode, nuw, nsw, SHAPES[0])]
    return keys + [(predicate, False, False) for predicate in ICMP_PREDICATES]


def reference(name, nuw, nsw, width):
    if name in ICMP_PREDICATES:
        return icmp_op(name, IntType(width), IntType(width))
    return binary_op(name, width, nuw, nsw, False)


def operand_values(width):
    """What a frame column may hold: every value of ``iN``, poison, unset."""
    return list(range(1 << width)) + [POISON, _UNSET]


def run_kernel(key, width, shape, lhs, rhs):
    """Run one kernel instance over lanes pairing ``lhs`` with ``rhs``
    (lists for slot operands, an int for a constant one).  Returns
    ``[(lhs, rhs, status, detail, result)]`` per lane."""
    lhs_values = lhs if shape[0] is _SLOT else [lhs]
    rhs_values = rhs if shape[1] is _SLOT else [rhs]
    pairs = list(itertools.product(lhs_values, rhs_values))
    frame = [[x for x, _ in pairs], [y for _, y in pairs], [_UNSET] * len(pairs)]
    lhs_info = (_SLOT, 0, LHS_REASON) if shape[0] is _SLOT else (_CONST, lhs)
    rhs_info = (_SLOT, 1, RHS_REASON) if shape[1] is _SLOT else (_CONST, rhs)
    step = _kernel_step(*key, width, lhs_info, rhs_info, 2)
    assert step is not None, (key, shape)
    ctx = _BatchContext(len(pairs), 4096)
    step(ctx, frame, list(range(len(pairs))))
    return [(x, y, ctx.statuses[lane], ctx.details[lane], frame[2][lane])
            for lane, (x, y) in enumerate(pairs)]


def expected(rule, x, y):
    """(status, detail, result) of one lane, by the reference rules."""
    if x is _UNSET:
        return "ub", LHS_REASON, _UNSET
    if y is _UNSET:
        return "ub", RHS_REASON, _UNSET
    return None, "", rule(x, y)


def test_the_kernels_cover_exactly_the_documented_ops():
    binary = {key for key in kernel_keys() if key[0] in BINARY_OPCODES}
    assert binary == (
        {(opcode, nuw, nsw) for opcode in ("add", "sub") for nuw, nsw in FLAGS}
        | {(opcode, False, False) for opcode in ("mul", "and", "or", "xor")})
    for key in kernel_keys():
        for shape in SHAPES:
            assert _kernel(*key, shape) is _kernel(*key, shape)  # cached


def key_id(key):
    name, nuw, nsw = key
    return name + " nuw" * nuw + " nsw" * nsw


@pytest.mark.parametrize("key", kernel_keys(), ids=key_id)
def test_kernel_equals_the_semantics(key):
    for width in WIDTHS:
        rule = reference(*key, width)
        column = operand_values(width)
        runs = [run_kernel(key, width, SHAPES[0], column, column)]
        for constant in range(1 << width):
            runs.append(run_kernel(key, width, SHAPES[1], column, constant))
            runs.append(run_kernel(key, width, SHAPES[2], constant, column))
        for lanes in runs:
            for x, y, status, detail, result in lanes:
                want = expected(rule, x, y)
                assert (status, detail) == want[:2], (key, width, x, y)
                if want[2] is POISON or want[2] is _UNSET:
                    assert result is want[2], (key, width, x, y)
                else:
                    assert type(result) is int and result == want[2], (
                        key, width, x, y)


@pytest.mark.parametrize("shape", SHAPES[1:], ids="-".join)
def test_non_integer_constants_have_no_kernel(shape):
    lhs = (_SLOT, 0, LHS_REASON) if shape[0] is _SLOT else (_CONST, POISON)
    rhs = (_SLOT, 1, RHS_REASON) if shape[1] is _SLOT else (_CONST, POISON)
    assert _kernel_step("add", False, False, 8, lhs, rhs, 2) is None


def test_kernels_are_named_after_their_op_under_the_package():
    code = _kernel("sub", True, True, SHAPES[1]).__code__
    assert code.co_filename.endswith("<kernel sub nuw nsw slot-const>")
    assert "/repro/tv/" in code.co_filename.replace("\\", "/")

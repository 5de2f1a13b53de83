"""Pattern matchers in the style of LLVM's ``PatternMatch.h``.

Matchers are small callables: ``matcher(value) -> bool``, with capture
slots.  They keep the InstCombine rule library readable::

    lhs = Capture()
    if m_add(m_any(lhs), m_zero())(inst):
        return lhs.value
"""

from __future__ import annotations

from typing import Callable, Optional

from ..ir.values import ConstantInt, Value

Matcher = Callable[[Value], bool]


class Capture:
    """Capture slot bound by a successful match."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value: Optional[Value] = None

    def __call__(self, value: Value) -> bool:
        self.value = value
        return True


class ConstCapture:
    """Captures a ConstantInt and exposes its numeric value."""

    __slots__ = ("constant",)

    def __init__(self) -> None:
        self.constant: Optional[ConstantInt] = None

    def __call__(self, value: Value) -> bool:
        if value.KIND == "int":
            self.constant = value
            return True
        return False

    @property
    def value(self) -> int:
        return self.constant.value

    @property
    def signed(self) -> int:
        return self.constant.signed_value()

    @property
    def width(self) -> int:
        return self.constant.type.width


def m_any(capture: Optional[Capture] = None) -> Matcher:
    if capture is None:
        return lambda value: True
    return capture


def m_specific(expected: Value) -> Matcher:
    return lambda value: value is expected


def m_constant_int(capture: Optional[ConstCapture] = None) -> Matcher:
    if capture is None:
        return lambda value: value.KIND == "int"
    return capture


def m_specific_int(number: int) -> Matcher:
    def match(value: Value) -> bool:
        return (value.KIND == "int"
                and value.value == number & value.type.mask)
    return match


def m_zero() -> Matcher:
    return m_specific_int(0)


def m_one() -> Matcher:
    return m_specific_int(1)


def m_all_ones() -> Matcher:
    def match(value: Value) -> bool:
        return value.KIND == "int" and value.is_all_ones()
    return match


def m_power_of_two(capture: Optional[ConstCapture] = None) -> Matcher:
    def match(value: Value) -> bool:
        if value.KIND != "int":
            return False
        if value.value == 0 or value.value & (value.value - 1):
            return False
        if capture is not None:
            capture.constant = value
        return True
    return match


def m_undef() -> Matcher:
    return lambda value: value.KIND == "undef"


def m_poison() -> Matcher:
    return lambda value: value.KIND == "poison"


def m_binop(opcode: str, lhs: Matcher, rhs: Matcher,
            capture: Optional[Capture] = None) -> Matcher:
    def match(value: Value) -> bool:
        if value.KIND != "binop" or value.opcode != opcode:
            return False
        if lhs(value.operands[0]) and rhs(value.operands[1]):
            if capture is not None:
                capture.value = value
            return True
        return False
    return match


def m_c_binop(opcode: str, lhs: Matcher, rhs: Matcher) -> Matcher:
    """Commutative match: tries both operand orders."""
    def match(value: Value) -> bool:
        if value.KIND != "binop" or value.opcode != opcode:
            return False
        if lhs(value.operands[0]) and rhs(value.operands[1]):
            return True
        return lhs(value.operands[1]) and rhs(value.operands[0])
    return match


def m_add(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("add", lhs, rhs)


def m_sub(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("sub", lhs, rhs)


def m_mul(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("mul", lhs, rhs)


def m_and(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("and", lhs, rhs)


def m_or(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("or", lhs, rhs)


def m_xor(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("xor", lhs, rhs)


def m_shl(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("shl", lhs, rhs)


def m_lshr(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("lshr", lhs, rhs)


def m_ashr(lhs: Matcher, rhs: Matcher) -> Matcher:
    return m_binop("ashr", lhs, rhs)


def m_not(inner: Matcher) -> Matcher:
    """xor X, -1 in either operand order."""
    def match(value: Value) -> bool:
        if value.KIND != "binop" or value.opcode != "xor":
            return False
        if value.operands[1].KIND == "int" and value.operands[1].is_all_ones():
            return inner(value.operands[0])
        if value.operands[0].KIND == "int" and value.operands[0].is_all_ones():
            return inner(value.operands[1])
        return False
    return match


def m_neg(inner: Matcher) -> Matcher:
    """sub 0, X."""
    def match(value: Value) -> bool:
        return (value.KIND == "binop" and value.opcode == "sub"
                and value.operands[0].KIND == "int"
                and value.operands[0].is_zero() and inner(value.operands[1]))
    return match


def m_icmp(predicate: Optional[str], lhs: Matcher, rhs: Matcher,
           capture: Optional[Capture] = None) -> Matcher:
    def match(value: Value) -> bool:
        if value.KIND != "icmp":
            return False
        if predicate is not None and value.predicate != predicate:
            return False
        if lhs(value.operands[0]) and rhs(value.operands[1]):
            if capture is not None:
                capture.value = value
            return True
        return False
    return match


def m_select(condition: Matcher, true_value: Matcher,
             false_value: Matcher) -> Matcher:
    def match(value: Value) -> bool:
        return (value.KIND == "select" and condition(value.condition)
                and true_value(value.true_value)
                and false_value(value.false_value))
    return match


def m_zext(inner: Matcher) -> Matcher:
    def match(value: Value) -> bool:
        return (value.KIND == "cast" and value.opcode == "zext"
                and inner(value.value))
    return match


def m_sext(inner: Matcher) -> Matcher:
    def match(value: Value) -> bool:
        return (value.KIND == "cast" and value.opcode == "sext"
                and inner(value.value))
    return match


def m_trunc(inner: Matcher) -> Matcher:
    def match(value: Value) -> bool:
        return (value.KIND == "cast" and value.opcode == "trunc"
                and inner(value.value))
    return match


def m_intrinsic(base_name: str, *arg_matchers: Matcher) -> Matcher:
    def match(value: Value) -> bool:
        if value.KIND != "call" or not value.is_intrinsic():
            return False
        if value.intrinsic_name() != base_name:
            return False
        args = value.args
        if len(args) < len(arg_matchers):
            return False
        return all(matcher(arg) for matcher, arg
                   in zip(arg_matchers, args))
    return match


def is_one_use(value: Value) -> bool:
    """LLVM's one-use heuristic: only rewrite through values whose sole
    consumer is the pattern being rewritten."""
    return value.num_uses() == 1

"""Constant evaluation shared by the folding/simplification passes.

Folding respects poison semantics: an operation whose flags are violated
folds to ``poison``; operations whose misuse is *immediate UB* (division
by zero, sdiv overflow) are never folded so the UB stays visible to the
validator.  ``undef`` operands are left alone — per-use undef semantics
make naive folding unsound.
"""

from __future__ import annotations

from typing import Optional

from ..ir.instructions import (BINARY_OPCODES, CAST_OPCODES, BinaryOperator,
                               CallInst, CastInst, ICmpInst, Instruction,
                               SelectInst, opcode_table)
from ..ir.types import IntType
from ..ir.values import Constant, ConstantInt, PoisonValue


def _signed(value: int, width: int) -> int:
    value &= (1 << width) - 1
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


def _unsigned(value: int, width: int) -> int:
    return value & ((1 << width) - 1)


def _fits_signed(value: int, width: int) -> bool:
    return -(1 << (width - 1)) <= value <= (1 << (width - 1)) - 1


def fold_binary(opcode: str, lhs: Constant, rhs: Constant, width: int,
                nuw: bool = False, nsw: bool = False,
                exact: bool = False) -> Optional[Constant]:
    """Fold a binary op over constants; None when it must not fold."""
    int_ty = IntType(width)
    lhs_kind, rhs_kind = lhs.KIND, rhs.KIND
    if opcode in ("udiv", "sdiv", "urem", "srem") and (
            rhs_kind == "poison" or rhs_kind == "int" and rhs.value == 0):
        return None  # a poison or zero divisor is UB, whatever the dividend
    if lhs_kind == "poison" or rhs_kind == "poison":
        return PoisonValue(int_ty)
    if not (lhs_kind == "int" and rhs_kind == "int"):
        return None

    a, b = lhs.value, rhs.value
    mask = (1 << width) - 1
    if opcode == "add":
        if nuw and a + b > mask:
            return PoisonValue(int_ty)
        if nsw and not _fits_signed(_signed(a, width) + _signed(b, width), width):
            return PoisonValue(int_ty)
        return ConstantInt(int_ty, a + b)
    if opcode == "sub":
        if nuw and a - b < 0:
            return PoisonValue(int_ty)
        if nsw and not _fits_signed(_signed(a, width) - _signed(b, width), width):
            return PoisonValue(int_ty)
        return ConstantInt(int_ty, a - b)
    if opcode == "mul":
        if nuw and a * b > mask:
            return PoisonValue(int_ty)
        if nsw and not _fits_signed(_signed(a, width) * _signed(b, width), width):
            return PoisonValue(int_ty)
        return ConstantInt(int_ty, a * b)
    if opcode in ("udiv", "urem"):
        if opcode == "udiv":
            if exact and a % b:
                return PoisonValue(int_ty)
            return ConstantInt(int_ty, a // b)
        return ConstantInt(int_ty, a % b)
    if opcode in ("sdiv", "srem"):
        signed_a, signed_b = _signed(a, width), _signed(b, width)
        if signed_a == -(1 << (width - 1)) and signed_b == -1:
            return None  # overflow is UB
        quotient = abs(signed_a) // abs(signed_b)
        if (signed_a < 0) != (signed_b < 0):
            quotient = -quotient
        if opcode == "sdiv":
            if exact and signed_a != quotient * signed_b:
                return PoisonValue(int_ty)
            return ConstantInt(int_ty, _unsigned(quotient, width))
        return ConstantInt(int_ty, _unsigned(signed_a - quotient * signed_b, width))
    if opcode in ("shl", "lshr", "ashr"):
        if b >= width:
            return PoisonValue(int_ty)
        if opcode == "shl":
            full = a << b
            if nuw and full > mask:
                return PoisonValue(int_ty)
            if nsw and _signed(full & mask, width) != _signed(a, width) * (1 << b):
                return PoisonValue(int_ty)
            return ConstantInt(int_ty, full)
        if exact and a & ((1 << b) - 1):
            return PoisonValue(int_ty)
        if opcode == "lshr":
            return ConstantInt(int_ty, a >> b)
        return ConstantInt(int_ty, _unsigned(_signed(a, width) >> b, width))
    if opcode == "and":
        return ConstantInt(int_ty, a & b)
    if opcode == "or":
        return ConstantInt(int_ty, a | b)
    if opcode == "xor":
        return ConstantInt(int_ty, a ^ b)
    return None


def fold_icmp(predicate: str, lhs: Constant, rhs: Constant,
              width: int) -> Optional[Constant]:
    bool_ty = IntType(1)
    if lhs.KIND == "poison" or rhs.KIND == "poison":
        return PoisonValue(bool_ty)
    if not (lhs.KIND == "int" and rhs.KIND == "int"):
        return None
    a, b = lhs.value, rhs.value
    if predicate in ("sgt", "sge", "slt", "sle"):
        a, b = _signed(a, width), _signed(b, width)
    result = {
        "eq": a == b, "ne": a != b,
        "ugt": a > b, "uge": a >= b, "ult": a < b, "ule": a <= b,
        "sgt": a > b, "sge": a >= b, "slt": a < b, "sle": a <= b,
    }[predicate]
    return ConstantInt(bool_ty, int(result))


def fold_cast(opcode: str, value: Constant, src_width: int,
              dst_width: int) -> Optional[Constant]:
    int_ty = IntType(dst_width)
    if value.KIND == "poison":
        return PoisonValue(int_ty)
    if value.KIND != "int":
        return None
    if opcode == "trunc":
        return ConstantInt(int_ty, value.value)
    if opcode == "zext":
        return ConstantInt(int_ty, value.value)
    if opcode == "sext":
        return ConstantInt(int_ty, _unsigned(_signed(value.value, src_width),
                                             dst_width))
    return None


def fold_intrinsic(base_name: str, args, width: int) -> Optional[Constant]:
    """Fold an integer intrinsic over fully-constant arguments."""
    int_ty = IntType(width)
    if any(a.KIND == "poison" for a in args):
        return PoisonValue(int_ty)
    if not all(a.KIND == "int" for a in args):
        return None
    values = [a.value for a in args]
    mask = (1 << width) - 1
    if base_name in ("llvm.smax", "llvm.smin"):
        a, b = _signed(values[0], width), _signed(values[1], width)
        chosen = max(a, b) if base_name.endswith("smax") else min(a, b)
        return ConstantInt(int_ty, _unsigned(chosen, width))
    if base_name in ("llvm.umax", "llvm.umin"):
        chosen = max(values[0], values[1]) if base_name.endswith("umax") \
            else min(values[0], values[1])
        return ConstantInt(int_ty, chosen)
    if base_name == "llvm.abs":
        signed = _signed(values[0], width)
        if signed == -(1 << (width - 1)):
            if values[1] == 1:
                return PoisonValue(int_ty)
            return ConstantInt(int_ty, values[0])
        return ConstantInt(int_ty, abs(signed))
    if base_name == "llvm.ctpop":
        return ConstantInt(int_ty, bin(values[0]).count("1"))
    if base_name == "llvm.ctlz":
        if values[0] == 0:
            if values[1] == 1:
                return PoisonValue(int_ty)
            return ConstantInt(int_ty, width)
        return ConstantInt(int_ty, width - values[0].bit_length())
    if base_name == "llvm.cttz":
        if values[0] == 0:
            if values[1] == 1:
                return PoisonValue(int_ty)
            return ConstantInt(int_ty, width)
        return ConstantInt(int_ty, (values[0] & -values[0]).bit_length() - 1)
    if base_name == "llvm.uadd.sat":
        return ConstantInt(int_ty, min(values[0] + values[1], mask))
    if base_name == "llvm.usub.sat":
        return ConstantInt(int_ty, max(values[0] - values[1], 0))
    if base_name == "llvm.sadd.sat":
        total = _signed(values[0], width) + _signed(values[1], width)
        return ConstantInt(int_ty, _unsigned(_clamp_signed(total, width), width))
    if base_name == "llvm.ssub.sat":
        total = _signed(values[0], width) - _signed(values[1], width)
        return ConstantInt(int_ty, _unsigned(_clamp_signed(total, width), width))
    return None


def _clamp_signed(value: int, width: int) -> int:
    low, high = -(1 << (width - 1)), (1 << (width - 1)) - 1
    return min(max(value, low), high)


def _fold_binary_inst(inst: BinaryOperator) -> Optional[Constant]:
    lhs, rhs = inst.operands
    if lhs.IS_CONSTANT and rhs.IS_CONSTANT:
        return fold_binary(inst.opcode, lhs, rhs, inst.type.width,
                           nuw=inst.nuw, nsw=inst.nsw, exact=inst.exact)
    return None


def _fold_icmp_inst(inst: ICmpInst) -> Optional[Constant]:
    lhs, rhs = inst.operands
    if lhs.IS_CONSTANT and rhs.IS_CONSTANT and lhs.type.IS_INTEGER:
        return fold_icmp(inst.predicate, lhs, rhs, lhs.type.width)
    return None


def _fold_cast_inst(inst: CastInst) -> Optional[Constant]:
    value = inst.operands[0]
    if value.IS_CONSTANT:
        return fold_cast(inst.opcode, value, value.type.width,
                         inst.type.width)
    return None


def _fold_select_inst(inst: SelectInst) -> Optional[Constant]:
    condition, true_value, false_value = inst.operands
    if condition.KIND == "poison":
        return PoisonValue(inst.type)
    if condition.KIND == "int":
        chosen = true_value if condition.value else false_value
        return chosen if chosen.IS_CONSTANT else None
    return None


def _fold_call_inst(inst: CallInst) -> Optional[Constant]:
    if inst.is_intrinsic() and inst.type.IS_INTEGER:
        args = inst.args
        if all(a.IS_CONSTANT for a in args):
            return fold_intrinsic(inst.intrinsic_name(), args,
                                  inst.type.width)
    return None


# Opcode-keyed dispatch: each opcode names exactly one instruction class,
# so one table subscription picks the folder; instructions with no folder
# (phi, load, br, ...) map to None.
_FOLDERS = opcode_table(None, {
    **dict.fromkeys(BINARY_OPCODES, _fold_binary_inst),
    "icmp": _fold_icmp_inst,
    **dict.fromkeys(CAST_OPCODES, _fold_cast_inst),
    "select": _fold_select_inst,
    "call": _fold_call_inst,
})


def fold_instruction(inst: Instruction) -> Optional[Constant]:
    """Fold a whole instruction if its operands allow it."""
    folder = _FOLDERS[inst.opcode]
    return None if folder is None else folder(inst)

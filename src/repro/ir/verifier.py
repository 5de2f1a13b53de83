"""IR verifier: structural, type, and SSA-dominance checks.

The mutation engine's core guarantee — mutants are valid IR 100% of the
time (paper §II) — is checked against this verifier in the test suite.
"""

from __future__ import annotations

from typing import List

from .basicblock import BasicBlock
from .domtree import DominatorTree
from .function import Function
from .instructions import (CallInst, EXACT_FLAG_OPCODES, Instruction,
                           WRAPPING_FLAG_OPCODES)
from .intrinsics import intrinsic_base_name, lookup as lookup_intrinsic
from .module import Module


class VerificationError(Exception):
    """Raised when a module or function violates an IR invariant."""

    def __init__(self, errors: List[str]) -> None:
        super().__init__("; ".join(errors))
        self.errors = errors


def verify_module(module: Module) -> None:
    """Verify every function definition; raise on the first bad function."""
    errors: List[str] = []
    for function in module.definitions():
        errors.extend(collect_function_errors(function))
    if errors:
        raise VerificationError(errors)


def verify_function(function: Function) -> None:
    errors = collect_function_errors(function)
    if errors:
        raise VerificationError(errors)


def is_valid_module(module: Module) -> bool:
    try:
        verify_module(module)
    except VerificationError:
        return False
    return True


def collect_function_errors(function: Function) -> List[str]:
    """All invariant violations found in one function definition."""
    errors: List[str] = []
    where = f"@{function.name}"
    if not function.blocks:
        return [f"{where}: definition has no blocks"]

    entry = function.entry_block()
    if entry.predecessors():
        errors.append(f"{where}: entry block has predecessors")

    for block in function.blocks:
        block_name = block.name or "<anon>"
        if not block.instructions:
            errors.append(f"{where}/{block_name}: empty block")
            continue
        terminator = block.terminator()
        if terminator is None:
            errors.append(f"{where}/{block_name}: missing terminator")
        for i, inst in enumerate(block.instructions):
            if inst.parent is not block:
                errors.append(f"{where}/{block_name}: instruction with wrong parent")
            if inst.IS_TERMINATOR and i != len(block.instructions) - 1:
                errors.append(f"{where}/{block_name}: terminator mid-block")
            if inst.KIND == "phi" and i > block.first_non_phi_index():
                errors.append(f"{where}/{block_name}: phi after non-phi")
            errors.extend(_check_instruction(function, block, inst))

    domtree = DominatorTree(function)
    errors.extend(_check_ssa(function, domtree))
    errors.extend(_check_phis(function, domtree))
    return errors


# ---------------------------------------------------------------------------


def _check_instruction(function: Function, block: BasicBlock,
                       inst: Instruction) -> List[str]:
    errors: List[str] = []
    where = f"@{function.name}: {inst.opcode} %{inst.name or '?'}"

    def err(message: str) -> None:
        errors.append(f"{where}: {message}")

    if inst.KIND == "binop":
        if not inst.type.IS_INTEGER:
            err("binary operator on non-integer type")
        elif inst.operands[0].type is not inst.type \
                or inst.operands[1].type is not inst.type:
            err("operand types do not match result type")
        if (inst.nuw or inst.nsw) and inst.opcode not in WRAPPING_FLAG_OPCODES:
            err(f"nuw/nsw flag on '{inst.opcode}'")
        if inst.exact and inst.opcode not in EXACT_FLAG_OPCODES:
            err(f"exact flag on '{inst.opcode}'")
    elif inst.KIND == "icmp":
        lhs, rhs = inst.operands
        if lhs.type is not rhs.type:
            err("icmp operand types differ")
        if not (lhs.type.IS_INTEGER or lhs.type.IS_POINTER):
            err("icmp on non-integer, non-pointer type")
    elif inst.KIND == "select":
        if not (inst.condition.type.IS_INTEGER
                and inst.condition.type.width == 1):
            err("select condition is not i1")
        if inst.true_value.type is not inst.false_value.type:
            err("select arms have different types")
        if inst.type is not inst.true_value.type:
            err("select result type mismatch")
    elif inst.KIND == "cast":
        src, dst = inst.src_type, inst.type
        if not (src.IS_INTEGER and dst.IS_INTEGER):
            err("cast between non-integer types")
        elif inst.opcode == "trunc" and not src.width > dst.width:
            err("trunc must narrow")
        elif inst.opcode in ("zext", "sext") and not src.width < dst.width:
            err(f"{inst.opcode} must widen")
    elif inst.KIND == "load":
        if not inst.pointer.type.IS_POINTER:
            err("load pointer operand is not a pointer")
        if not inst.type.IS_FIRST_CLASS:
            err("load of non-first-class type")
    elif inst.KIND == "store":
        if not inst.pointer.type.IS_POINTER:
            err("store pointer operand is not a pointer")
        if not inst.value.type.IS_FIRST_CLASS:
            err("store of non-first-class type")
    elif inst.KIND == "gep":
        if not inst.pointer.type.IS_POINTER:
            err("gep pointer operand is not a pointer")
        for index in inst.indices:
            if not index.type.IS_INTEGER:
                err("gep index is not an integer")
    elif inst.KIND == "call":
        errors.extend(_check_call(function, inst))
    elif inst.KIND == "ret":
        if function.return_type.IS_VOID:
            if inst.return_value is not None:
                err("ret with value in void function")
        elif inst.return_value is None:
            err("ret void in non-void function")
        elif inst.return_value.type is not function.return_type:
            err("ret value type does not match function return type")
    elif inst.KIND == "br":
        if inst.is_conditional():
            condition = inst.condition
            if not (condition.type.IS_INTEGER
                    and condition.type.width == 1):
                err("br condition is not i1")
        for successor in inst.successors():
            if successor.KIND != "block":
                err("br target is not a block")
            elif successor.parent is not function:
                err("br target belongs to a different function")
    elif inst.KIND == "switch":
        if not inst.value.type.IS_INTEGER:
            err("switch on non-integer value")
        seen = set()
        for case_value, case_block in inst.cases():
            if case_value.KIND != "int":
                err("switch case value is not a constant int")
                continue
            if case_value.type is not inst.value.type:
                err("switch case type mismatch")
            if case_value.value in seen:
                err("duplicate switch case")
            seen.add(case_value.value)
            if case_block.parent is not function:
                err("switch target belongs to a different function")
    return errors


def _check_call(function: Function, inst: CallInst) -> List[str]:
    errors: List[str] = []
    callee = inst.callee
    where = f"@{function.name}: call @{callee.name}"
    params = callee.function_type.param_types
    args = inst.args
    if len(args) != len(params) and not callee.function_type.is_vararg:
        errors.append(f"{where}: expects {len(params)} args, got {len(args)}")
    else:
        for i, (arg, param_type) in enumerate(zip(args, params)):
            if arg.type is not param_type:
                errors.append(
                    f"{where}: arg {i} has type {arg.type}, expected {param_type}")
    if callee.name.startswith("llvm."):
        base = intrinsic_base_name(callee.name)
        if lookup_intrinsic(callee.name) is None:
            errors.append(f"{where}: unknown intrinsic")
        elif lookup_intrinsic(callee.name).num_args != len(args):
            errors.append(f"{where}: wrong intrinsic arity")
        _ = base
    return errors


def _check_ssa(function: Function, domtree: DominatorTree) -> List[str]:
    """Every use must be dominated by its definition (reachable code only)."""
    errors: List[str] = []
    for block in function.blocks:
        if not domtree.is_reachable(block):
            continue
        for inst in block.instructions:
            for operand_index, operand in enumerate(inst.operands):
                if operand.IS_INSTRUCTION:
                    if operand.parent is None or operand.function is not function:
                        errors.append(
                            f"@{function.name}: %{inst.name or '?'} uses a "
                            "detached or foreign instruction")
                        continue
                    if not domtree.dominates_use(operand, inst, operand_index):
                        errors.append(
                            f"@{function.name}: use of %{operand.name or '?'} in "
                            f"%{inst.name or inst.opcode} is not dominated by "
                            "its definition")
                elif operand.KIND == "block":
                    if operand.parent is not function:
                        errors.append(
                            f"@{function.name}: reference to foreign block")
    return errors


def _check_phis(function: Function, domtree: DominatorTree) -> List[str]:
    errors: List[str] = []
    for block in function.blocks:
        if not domtree.is_reachable(block):
            continue
        preds = block.predecessors()
        pred_ids = {id(p) for p in preds}
        for phi in block.phis():
            incoming = phi.incoming()
            incoming_ids = {id(b) for _, b in incoming}
            if incoming_ids != pred_ids:
                errors.append(
                    f"@{function.name}: phi %{phi.name or '?'} incoming blocks "
                    "do not match predecessors")
            for value, _ in incoming:
                if value.type is not phi.type:
                    errors.append(
                        f"@{function.name}: phi %{phi.name or '?'} incoming "
                        "value type mismatch")
    return errors

"""Test-case reduction for failing mutants.

After the replay workflow captures a bug-triggering module (paper
§III-E), the module usually contains mutation debris irrelevant to the
bug.  :func:`reduce_module` greedily shrinks it while an
``is_interesting`` oracle keeps returning True — the same contract as
llvm-reduce / C-Reduce, over our IR.

Reduction transforms, tried smallest-effect-last:

* delete whole unused functions;
* delete dead instructions;
* replace an instruction's uses with one of its same-typed operands,
  then delete it (operand hoisting);
* replace an instruction's uses with a simple constant (0, 1, undef);
* fold a conditional branch to one of its sides;
* strip function/parameter attributes and call bundles.

Every candidate is applied to a clone and kept only if the result still
verifies and is still interesting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional, Tuple

from ..ir.instructions import BrInst, CallInst, Instruction
from ..ir.module import Module
from ..ir.values import ConstantInt
from ..ir.verifier import is_valid_module
from ..ir.types import IntType

Oracle = Callable[[Module], bool]


@dataclass
class ReductionResult:
    module: Module
    rounds: int
    candidates_tried: int
    candidates_kept: int
    original_instructions: int
    reduced_instructions: int

    def summary(self) -> str:
        return (f"reduced {self.original_instructions} -> "
                f"{self.reduced_instructions} instructions in "
                f"{self.rounds} rounds "
                f"({self.candidates_kept}/{self.candidates_tried} "
                "candidate edits kept)")


def _instruction_count(module: Module) -> int:
    return sum(fn.num_instructions() for fn in module.definitions())


def reduce_module(module: Module, is_interesting: Oracle,
                  max_rounds: int = 12,
                  max_candidates: int = 2000) -> ReductionResult:
    """Shrink ``module`` while ``is_interesting`` stays true.

    The input module is not modified; the reduced clone is returned.
    ``is_interesting`` must be true for the input (checked).
    """
    if not is_interesting(module):
        raise ValueError("the input module is not interesting")
    current = module.clone()
    original_size = _instruction_count(current)
    tried = kept = rounds = 0

    progress = True
    while progress and rounds < max_rounds and tried < max_candidates:
        progress = False
        rounds += 1
        for candidate_edit in _candidate_edits(current):
            if tried >= max_candidates:
                break
            attempt = current.clone()
            if not _apply_edit(attempt, candidate_edit):
                continue
            tried += 1
            if not is_valid_module(attempt):
                continue
            if is_interesting(attempt):
                current = attempt
                kept += 1
                progress = True
                break  # re-enumerate against the new smaller module
    return ReductionResult(
        module=current,
        rounds=rounds,
        candidates_tried=tried,
        candidates_kept=kept,
        original_instructions=original_size,
        reduced_instructions=_instruction_count(current),
    )


# ---------------------------------------------------------------------------
# Edits are (kind, function name, block index, instruction index, extra)
# tuples: positional addressing survives cloning.
# ---------------------------------------------------------------------------


def _candidate_edits(module: Module) -> Iterator[Tuple]:
    # 1. whole functions (except when they are the only definition).
    definitions = module.definitions()
    if len(definitions) > 1:
        for function in definitions:
            yield ("drop-function", function.name)

    for function in definitions:
        name = function.name
        # 2..4: per-instruction edits, last instruction first (later
        # instructions tend to be mutation debris).
        for block_index, block in enumerate(function.blocks):
            for inst_index in range(len(block.instructions) - 1, -1, -1):
                inst = block.instructions[inst_index]
                if inst.IS_TERMINATOR:
                    if isinstance(inst, BrInst) and inst.is_conditional():
                        yield ("fold-branch", name, block_index, inst_index, 0)
                        yield ("fold-branch", name, block_index, inst_index, 1)
                    continue
                yield ("delete", name, block_index, inst_index)
                for operand_index, operand in enumerate(inst.operands):
                    if operand.type is inst.type:
                        yield ("hoist", name, block_index, inst_index,
                               operand_index)
                    # Look one level deeper: shortcuts trunc(zext(x))-style
                    # cast chains left behind by mutations.
                    if isinstance(operand, Instruction):
                        for deep_index, deep in enumerate(operand.operands):
                            if deep.type is inst.type:
                                yield ("hoist2", name, block_index,
                                       inst_index, operand_index, deep_index)
                if isinstance(inst.type, IntType):
                    for constant in (0, 1):
                        yield ("constify", name, block_index, inst_index,
                               constant)
                if isinstance(inst, CallInst) and inst.bundles:
                    yield ("strip-bundles", name, block_index, inst_index)
        # 5. attributes.
        if function.attributes:
            yield ("strip-fn-attrs", name)
        for arg_index, argument in enumerate(function.arguments):
            if argument.attributes:
                yield ("strip-arg-attrs", name, arg_index)


def _locate(module: Module, name: str, block_index: int,
            inst_index: int) -> Optional[Instruction]:
    function = module.get_function(name)
    if function is None or block_index >= len(function.blocks):
        return None
    block = function.blocks[block_index]
    if inst_index >= len(block.instructions):
        return None
    return block.instructions[inst_index]


def _apply_edit(module: Module, edit: Tuple) -> bool:
    kind = edit[0]
    if kind == "drop-function":
        function = module.get_function(edit[1])
        if function is None:
            return False
        # Only droppable when nothing in the module calls it.
        for other in module.definitions():
            if other is function:
                continue
            for inst in other.instructions():
                if isinstance(inst, CallInst) and inst.callee is function:
                    return False
        module.remove_function(edit[1])
        return True
    if kind == "strip-fn-attrs":
        function = module.get_function(edit[1])
        if function is None or not function.attributes:
            return False
        for attr_name in list(function.attributes.names()):
            function.attributes.remove(attr_name)
        return True
    if kind == "strip-arg-attrs":
        function = module.get_function(edit[1])
        if function is None or edit[2] >= len(function.arguments):
            return False
        argument = function.arguments[edit[2]]
        if not argument.attributes:
            return False
        for attr_name in list(argument.attributes.names()):
            argument.attributes.remove(attr_name)
        return True

    inst = _locate(module, edit[1], edit[2], edit[3])
    if inst is None:
        return False
    if kind == "delete":
        if inst.has_uses() or inst.IS_TERMINATOR:
            return False
        inst.erase_from_parent()
        return True
    if kind == "hoist":
        operand_index = edit[4]
        if operand_index >= inst.num_operands():
            return False
        operand = inst.operands[operand_index]
        if operand.type is not inst.type or operand is inst:
            return False
        inst.replace_all_uses_with(operand)
        inst.erase_from_parent()
        return True
    if kind == "hoist2":
        operand_index, deep_index = edit[4], edit[5]
        if operand_index >= inst.num_operands():
            return False
        operand = inst.operands[operand_index]
        if not isinstance(operand, Instruction) \
                or deep_index >= operand.num_operands():
            return False
        deep = operand.operands[deep_index]
        if deep.type is not inst.type or deep is inst:
            return False
        inst.replace_all_uses_with(deep)
        inst.erase_from_parent()
        if not operand.has_uses() and not operand.has_side_effects() \
                and not operand.IS_TERMINATOR:
            operand.erase_from_parent()
        return True
    if kind == "constify":
        if not isinstance(inst.type, IntType) or inst.IS_TERMINATOR:
            return False
        inst.replace_all_uses_with(ConstantInt(inst.type, edit[4]))
        if not inst.has_side_effects():
            inst.erase_from_parent()
        return True
    if kind == "strip-bundles":
        if not isinstance(inst, CallInst) or not inst.bundles:
            return False
        replacement = CallInst(inst.callee, inst.args)
        replacement.name = inst.name
        block = inst.parent
        index = block.index_of(inst)
        inst.erase_from_parent()
        block.insert(index, replacement)
        return True
    if kind == "fold-branch":
        if not (isinstance(inst, BrInst) and inst.is_conditional()):
            return False
        taken = inst.operands[1 + edit[4]]
        dead = inst.operands[2 - edit[4]]
        block = inst.parent
        inst.erase_from_parent()
        block.append(BrInst(taken))
        if dead is not taken:
            for phi in dead.phis():
                phi.remove_incoming(block)
        return True
    return False

"""Abusive inlining (paper §IV-B, Listing 6).

The inliner is pointed at a function *other than* the intended callee —
any defined function with a compatible signature — on the hypothesis that
splicing a different body into the call site creates interesting IR.  The
intended callee itself is also a valid (boring) choice when nothing else
is compatible.

Only single-block callees are inlined (no block splitting needed); that is
the common shape of the helper functions in the corpus.
"""

from __future__ import annotations

from typing import Dict, Optional

from ...analysis.overlay import MutantOverlay
from ...ir.function import Function
from ...ir.instructions import CallInst
from ...ir.values import Value
from ..primitives import random_dominating_value
from ..rng import MutationRNG


def _inlinable(function: Function) -> bool:
    if function.is_declaration() or len(function.blocks) != 1:
        return False
    terminator = function.blocks[0].terminator()
    return terminator is not None and terminator.KIND == "ret"


def _signature_compatible(call: CallInst, candidate: Function) -> bool:
    if len(candidate.arguments) != len(call.args):
        return False
    return all(arg.type is param.type
               for arg, param in zip(call.args, candidate.arguments))


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    function = overlay.mutant
    module = function.parent
    if module is None:
        return False
    calls = [inst for block in function.blocks for inst in block.instructions
             if inst.KIND == "call" and not inst.is_intrinsic()]
    call = rng.maybe_choice(calls)
    if call is None:
        return False
    candidates = [f for f in module.definitions()
                  if f is not function and _inlinable(f)
                  and _signature_compatible(call, f)]
    # Prefer a function other than the intended callee (that is the abuse).
    others = [f for f in candidates if f is not call.callee]
    chosen = rng.maybe_choice(others) or rng.maybe_choice(candidates)
    if chosen is None:
        return False
    _inline_body(call, chosen, overlay, rng)
    overlay.invalidate_positions()
    return True


def _inline_body(call: CallInst, callee: Function, overlay: MutantOverlay,
                 rng: MutationRNG) -> None:
    block = call.parent
    # Callee values -> their copies at the call site; anything else
    # (constants, functions) maps to itself.
    value_map: Dict[Value, Value] = dict(zip(callee.arguments, call.args))
    insert_at = block.index_of(call)
    return_value: Optional[Value] = None
    for inst in callee.blocks[0].instructions:
        if inst.KIND == "ret":
            value = inst.return_value
            if value is not None:
                return_value = value_map.get(value, value)
            break
        cloned = inst.copy_with([value_map.get(value, value)
                                 for value in inst.operands])
        cloned.name = call.parent.parent.next_temp_name() \
            if cloned.type.IS_FIRST_CLASS else ""
        block.insert(insert_at, cloned)
        insert_at += 1
        value_map[inst] = cloned

    if call.type.IS_VOID:
        call.erase_from_parent()
        return
    if return_value is not None and return_value.type is call.type:
        call.replace_all_uses_with(return_value)
        call.erase_from_parent()
        return
    # Return type mismatch (the chosen body returns a different type than
    # the call produced): substitute a dominating value for the call's
    # users, then drop the call.
    anchor = block.instructions[insert_at]
    substitute = random_dominating_value(overlay, anchor, call.type, rng)
    call.replace_all_uses_with(substitute)
    call.erase_from_parent()

"""AlignmentFromAssumptions: propagate ``assume align`` bundles.

``call void @llvm.assume(i1 true) [ "align"(ptr %p, i64 N) ]`` lets the
pass raise the alignment recorded on loads/stores through ``%p``.

Hosts seeded crash bug 64687: per the LangRef, alignments in assume
bundles are *not* required to be powers of two; the buggy pass asserts
they are ("missing a corner case") and dies on e.g. ``align 123``.
"""

from __future__ import annotations

from ...ir.function import Function
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass


def _is_power_of_two(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


@register_pass("align-from-assumptions")
class AlignmentFromAssumptions(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        changed = False
        for block in function.blocks:
            for inst in block.instructions:
                if not (inst.KIND == "call"
                        and inst.intrinsic_name() == "llvm.assume"):
                    continue
                for bundle in inst.bundles:
                    if bundle.tag != "align":
                        continue
                    operands = inst.bundle_operands(bundle)
                    if len(operands) != 2:
                        continue
                    pointer, align_value = operands
                    if align_value.KIND != "int":
                        continue
                    align = align_value.value
                    if not _is_power_of_two(align):
                        if ctx.bug_enabled("64687"):
                            ctx.crash("64687",
                                      "AlignmentFromAssumptions assumed "
                                      "all alignments are powers of two")
                        continue  # the fixed behavior: skip the odd alignment
                    for use in pointer.uses:
                        user = use.user
                        if user.KIND == "load" and user.operands[0] is pointer:
                            if user.align < align:
                                user.align = align
                                ctx.count("align-assume.load")
                                changed = True
                        elif user.KIND == "store" \
                                and user.operands[1] is pointer:
                            if user.align < align:
                                user.align = align
                                ctx.count("align-assume.store")
                                changed = True
        return changed

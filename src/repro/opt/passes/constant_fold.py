"""Constant-folding pass (plus the ConstantFolding seeded crash bugs)."""

from __future__ import annotations

from ...ir.function import Function
from ..context import OptContext
from ..fold import fold_instruction
from ..scan import ScanPass, SweepState
from ..pass_manager import register_pass, replace_and_erase


@register_pass("constfold")
class ConstantFolding(ScanPass):
    """Folds instructions whose operands are all constants.

    Hosts two seeded crash bugs from Table I:

    * 56945 — "the dyn_cast to a ConstantInt would fail with a poison
      input": with the bug enabled, folding an intrinsic whose argument is
      ``poison`` unconditionally treats it as a ConstantInt and dies.
    * 56981 — "assertion is too strong": an over-eager internal assert that
      select conditions seen by the folder are never constant-foldable
      booleans from icmp chains wider than i1 — modeled as asserting the
      folded select condition is 0 or 1 *after* poison substitution.
    """

    def _run(self, function: Function, ctx: OptContext,
             sweep: SweepState) -> bool:
        poison_intrinsic_bug = ctx.bug_enabled("56945")
        poison_select_bug = ctx.bug_enabled("56981")
        changed = True
        any_change = False
        while changed:
            changed = False
            everything, visit = sweep.everything, sweep.visit
            for block in function.blocks:
                if not everything and id(block) not in sweep.visit_blocks:
                    continue
                for inst in list(block.instructions):
                    if inst.parent is None \
                            or not (everything or inst in visit):
                        continue
                    sweep.visits += 1
                    if poison_intrinsic_bug and inst.KIND == "call" \
                            and inst.is_intrinsic() \
                            and any(a.KIND == "poison" for a in inst.args):
                        ctx.crash("56945",
                                  "dyn_cast<ConstantInt> on poison operand")
                    if poison_select_bug and inst.KIND == "select" \
                            and inst.operands[0].KIND == "poison":
                        ctx.crash("56981",
                                  "assert(isa<ConstantInt>(Cond)) is too strong")
                    folded = fold_instruction(inst)
                    if folded is not None:
                        sweep.note_rewrite(inst)
                        replace_and_erase(inst, folded)
                        ctx.count("constfold.folded")
                        changed = True
                        any_change = True
            sweep.finish_sweep()
        return any_change

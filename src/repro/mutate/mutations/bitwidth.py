"""Bitwidth-change mutation (paper §IV-H, Figures 4-5, Listing 13).

Changing the width of one SSA value is contagious: every user would need
resizing.  To bound the blast radius, the mutation picks a *path* from a
root instruction to a leaf through the use tree and re-creates only the
instructions on that path at the new width:

* the root's operands are truncated / extended to the new width,
* each path instruction is re-created at the new width, consuming the new
  version of its path predecessor (other operands are resized),
* after the leaf, the new value is resized back to the original width and
  replaces the old leaf everywhere.

Old path instructions stay behind for their other (off-path) users —
exactly Figure 5's picture — and die in DCE if unused.

Only fully bitwidth-polymorphic instructions (plain binary arithmetic)
are eligible, mirroring the paper's ``bswap``/``icmp`` discussion.
"""

from __future__ import annotations

from typing import List

from ...analysis.overlay import MutantOverlay
from ...analysis.use_tree import use_path_from, width_change_roots
from ...ir.builder import IRBuilder
from ...ir.types import IntType, MAX_INT_BITS
from ...ir.values import ConstantInt, Value
from ..rng import MutationRNG

# Widths the mutation may retarget to; a blend of standard and odd widths
# (the paper's Listing 13 retargets i32 to i26).
CANDIDATE_WIDTHS = (3, 7, 8, 13, 16, 17, 24, 26, 31, 32, 33, 48, 64)


def _resize(builder: IRBuilder, value: Value, new_type: IntType,
            rng: MutationRNG) -> Value:
    old_width = value.type.width
    if old_width == new_type.width:
        return value
    if value.KIND == "int":
        # Fold constant resizes directly so the retargeted instruction
        # keeps a literal operand (as in the paper's Listing 13).
        if old_width > new_type.width or not rng.chance(0.5):
            return ConstantInt(new_type, value.value)
        return ConstantInt(new_type, value.signed_value())
    if old_width > new_type.width:
        return builder.trunc(value, new_type)
    opcode = "sext" if rng.chance(0.5) else "zext"
    return builder.cast(opcode, value, new_type)


def apply(overlay: MutantOverlay, rng: MutationRNG) -> bool:
    roots = [inst for inst in width_change_roots(overlay.mutant)
             if inst.type.width > 1]
    root = rng.maybe_choice(roots)
    if root is None:
        return False
    path = use_path_from(root, rng.choice)
    if not path:
        return False
    # Sometimes only take a prefix of the full path.
    if len(path) > 1 and rng.chance(0.5):
        path = path[:rng.randint(1, len(path))]

    old_width = root.type.width
    new_width = rng.choice([w for w in CANDIDATE_WIDTHS
                            if w != old_width and w <= MAX_INT_BITS])
    new_type = IntType(new_width)

    new_values = {}
    for node in path:
        builder = IRBuilder()
        builder.set_insert_after(node)
        operands: List[Value] = []
        for operand in node.operands:
            replacement = new_values.get(id(operand))
            if replacement is None:
                replacement = _resize(builder, operand, new_type, rng)
            operands.append(replacement)
        new_node = builder.binop(node.opcode, operands[0], operands[1],
                                 nuw=node.nuw, nsw=node.nsw,
                                 exact=node.exact)
        new_values[id(node)] = new_node

    leaf = path[-1]
    new_leaf = new_values[id(leaf)]
    builder = IRBuilder()
    builder.set_insert_after(new_leaf)
    back = _resize(builder, new_leaf, leaf.type, rng)
    leaf.replace_all_uses_with(back)
    return True

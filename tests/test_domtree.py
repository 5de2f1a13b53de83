"""Tests for the dominator tree, including a check against a naive
dataflow computation of dominance."""

from typing import Dict, Set

from repro.analysis import DominatorTree, reverse_postorder
from repro.ir.cfg import predecessor_map

from helpers import parsed

DIAMOND = """
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %left, label %right
left:
  %x = add i32 1, 2
  br label %join
right:
  br label %join
join:
  %r = phi i32 [ %x, %left ], [ 0, %right ]
  ret i32 %r
}
"""

LOOP = """
define i32 @f(i32 %n) {
entry:
  br label %header
header:
  %i = phi i32 [ 0, %entry ], [ %next, %latch ]
  %c = icmp ult i32 %i, %n
  br i1 %c, label %body, label %exit
body:
  br label %latch
latch:
  %next = add i32 %i, 1
  br label %header
exit:
  ret i32 %i
}
"""

UNREACHABLE = """
define i32 @f() {
entry:
  ret i32 0
dead:
  br label %dead2
dead2:
  br label %dead
}
"""


def blocks_by_name(fn):
    return {b.name: b for b in fn.blocks}


def naive_dominators(fn) -> Dict[str, Set[str]]:
    """Classic iterative all-dominators dataflow, for cross-checking."""
    order = reverse_postorder(fn)
    names = [b.name for b in order]
    preds = predecessor_map(fn)
    dom = {b.name: set(names) for b in order}
    dom[order[0].name] = {order[0].name}
    changed = True
    while changed:
        changed = False
        for block in order[1:]:
            reachable_preds = [p for p in preds[id(block)]
                               if p.name in dom and any(q is p for q in order)]
            incoming = [dom[p.name] for p in reachable_preds if p in order]
            if not incoming:
                continue
            new = set.intersection(*incoming) | {block.name}
            if new != dom[block.name]:
                dom[block.name] = new
                changed = True
    return dom


class TestDomTreeStructure:
    def test_diamond_idoms(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        assert tree.immediate_dominator(blocks["entry"]) is None
        assert tree.immediate_dominator(blocks["left"]) is blocks["entry"]
        assert tree.immediate_dominator(blocks["right"]) is blocks["entry"]
        assert tree.immediate_dominator(blocks["join"]) is blocks["entry"]

    def test_loop_idoms(self):
        fn = parsed(LOOP).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        assert tree.immediate_dominator(blocks["header"]) is blocks["entry"]
        assert tree.immediate_dominator(blocks["body"]) is blocks["header"]
        assert tree.immediate_dominator(blocks["latch"]) is blocks["body"]
        assert tree.immediate_dominator(blocks["exit"]) is blocks["header"]

    def test_dominates_block_reflexive(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        for block in fn.blocks:
            assert tree.dominates_block(block, block)
            assert not tree.strictly_dominates_block(block, block)

    def test_siblings_do_not_dominate(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        assert not tree.dominates_block(blocks["left"], blocks["right"])
        assert not tree.dominates_block(blocks["left"], blocks["join"])

    def test_unreachable_blocks(self):
        fn = parsed(UNREACHABLE).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        assert tree.is_reachable(blocks["entry"])
        assert not tree.is_reachable(blocks["dead"])
        assert not tree.dominates_block(blocks["dead"], blocks["entry"])

    def test_children(self):
        fn = parsed(LOOP).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        children = {b.name for b in tree.children(blocks["header"])}
        assert children == {"body", "exit"}

    def test_depth(self):
        fn = parsed(LOOP).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        assert tree.dominance_depth(blocks["entry"]) == 0
        assert tree.dominance_depth(blocks["latch"]) == 3

    def test_matches_naive_dataflow(self):
        for text in (DIAMOND, LOOP):
            fn = parsed(text).get_function("f")
            tree = DominatorTree(fn)
            expected = naive_dominators(fn)
            blocks = blocks_by_name(fn)
            for a in blocks.values():
                for b in blocks.values():
                    assert tree.dominates_block(a, b) == \
                        (a.name in expected[b.name]), (a.name, b.name)


class TestValueDominance:
    def test_constants_and_arguments_dominate_everything(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        arg = fn.arguments[0]
        assert tree.dominates(arg, blocks["join"], 0)
        from repro.ir import ConstantInt, I32

        assert tree.dominates(ConstantInt(I32, 1), blocks["entry"], 0)

    def test_same_block_ordering(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        x = blocks["left"].instructions[0]
        assert not tree.dominates(x, blocks["left"], 0)
        assert tree.dominates(x, blocks["left"], 1)

    def test_cross_block_value_dominance(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        x = blocks["left"].instructions[0]
        assert not tree.dominates(x, blocks["join"], 0)
        assert not tree.dominates(x, blocks["right"], 0)

    def test_phi_use_checked_at_incoming_block_end(self):
        fn = parsed(DIAMOND).get_function("f")
        tree = DominatorTree(fn)
        blocks = blocks_by_name(fn)
        phi = blocks["join"].instructions[0]
        x = blocks["left"].instructions[0]
        # %x flows in through the %left edge: legal.
        assert tree.dominates_use(x, phi, 0)

    def test_reverse_postorder_starts_at_entry(self):
        fn = parsed(LOOP).get_function("f")
        order = reverse_postorder(fn)
        assert order[0].name == "entry"
        assert order[1].name == "header"
        assert len(order) == 5

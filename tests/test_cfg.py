"""Tests for CFG traversal utilities."""

from repro.ir.cfg import (postorder, predecessor_map, reachable_blocks,
                          reverse_postorder)

from helpers import parsed


def fn_of(text):
    return parsed(text).definitions()[0]


class TestReversePostorder:
    def test_straight_line(self):
        fn = fn_of("""
define void @f() {
entry:
  br label %a
a:
  br label %b
b:
  ret void
}
""")
        assert [b.name for b in reverse_postorder(fn)] == ["entry", "a", "b"]

    def test_diamond_entry_first_join_last(self):
        fn = fn_of("""
define void @f(i1 %c) {
entry:
  br i1 %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  ret void
}
""")
        order = [b.name for b in reverse_postorder(fn)]
        assert order[0] == "entry"
        assert order[-1] == "join"
        assert set(order) == {"entry", "l", "r", "join"}

    def test_loop_header_before_body(self):
        fn = fn_of("""
define void @f(i1 %c) {
entry:
  br label %h
h:
  br i1 %c, label %body, label %out
body:
  br label %h
out:
  ret void
}
""")
        order = [b.name for b in reverse_postorder(fn)]
        assert order.index("h") < order.index("body")

    def test_unreachable_excluded(self):
        fn = fn_of("""
define void @f() {
entry:
  ret void
dead:
  br label %dead
}
""")
        assert [b.name for b in reverse_postorder(fn)] == ["entry"]
        assert len(reachable_blocks(fn)) == 1

    def test_postorder_is_reverse(self):
        fn = fn_of("""
define void @f() {
entry:
  br label %a
a:
  ret void
}
""")
        assert [b.name for b in postorder(fn)] == \
            list(reversed([b.name for b in reverse_postorder(fn)]))


class TestPredecessorMap:
    def test_diamond(self):
        fn = fn_of("""
define void @f(i1 %c) {
entry:
  br i1 %c, label %l, label %r
l:
  br label %join
r:
  br label %join
join:
  ret void
}
""")
        preds = predecessor_map(fn)
        blocks = {b.name: b for b in fn.blocks}
        assert {p.name for p in preds[id(blocks["join"])]} == {"l", "r"}
        assert preds[id(blocks["entry"])] == []

    def test_self_loop_counted_once(self):
        fn = fn_of("""
define void @f(i1 %c) {
entry:
  br label %spin
spin:
  br i1 %c, label %spin, label %out
out:
  ret void
}
""")
        preds = predecessor_map(fn)
        blocks = {b.name: b for b in fn.blocks}
        assert {p.name for p in preds[id(blocks["spin"])]} == \
            {"entry", "spin"}

    def test_duplicate_edges_deduped(self):
        fn = fn_of("""
define void @f(i1 %c) {
entry:
  br i1 %c, label %next, label %next
next:
  ret void
}
""")
        preds = predecessor_map(fn)
        blocks = {b.name: b for b in fn.blocks}
        assert len(preds[id(blocks["next"])]) == 1

"""Tests for instruction classes and opcode metadata."""

import pytest

from repro.ir import (Argument, BasicBlock, BINARY_OPCODES, BinaryOperator,
                      BrInst, CastInst, COMMUTATIVE_OPCODES, ConstantInt,
                      EXACT_FLAG_OPCODES, FreezeInst, Function, FunctionType,
                      I1, I8, I16, I32, ICMP_PREDICATES, ICmpInst, LoadInst,
                      Module, PhiNode, PTR, RetInst, SelectInst, StoreInst,
                      SwitchInst, UnreachableInst, WRAPPING_FLAG_OPCODES)
from repro.ir.instructions import INVERTED_PREDICATE, SWAPPED_PREDICATE


def arg(t=I32, name="a"):
    return Argument(t, name)


class TestBinaryOperator:
    def test_result_type_follows_lhs(self):
        add = BinaryOperator("add", arg(), arg(I32, "b"))
        assert add.type is I32

    def test_unknown_opcode_rejected(self):
        with pytest.raises(ValueError):
            BinaryOperator("fadd", arg(), arg())

    def test_flags_default_off(self):
        add = BinaryOperator("add", arg(), arg())
        assert not (add.nuw or add.nsw or add.exact)

    def test_flags_repr(self):
        add = BinaryOperator("add", arg(), arg(), nuw=True, nsw=True)
        assert add.flags_repr() == "nuw nsw "
        div = BinaryOperator("udiv", arg(), arg(), exact=True)
        assert div.flags_repr() == "exact "

    def test_commutativity_table(self):
        assert COMMUTATIVE_OPCODES == {"add", "mul", "and", "or", "xor"}
        assert BinaryOperator("add", arg(), arg()).is_commutative()
        assert not BinaryOperator("sub", arg(), arg()).is_commutative()

    def test_flag_support_tables(self):
        assert WRAPPING_FLAG_OPCODES == {"add", "sub", "mul", "shl"}
        assert EXACT_FLAG_OPCODES == {"udiv", "sdiv", "lshr", "ashr"}

    def test_clone_preserves_flags(self):
        add = BinaryOperator("shl", arg(), arg(), nuw=True)
        cloned = add.clone()
        assert cloned.opcode == "shl" and cloned.nuw and not cloned.nsw
        assert cloned is not add

    def test_all_binary_opcodes_constructible(self):
        for opcode in BINARY_OPCODES:
            inst = BinaryOperator(opcode, arg(), arg())
            assert inst.opcode == opcode


class TestICmp:
    def test_result_is_i1(self):
        cmp = ICmpInst("slt", arg(), arg())
        assert cmp.type is I1

    def test_predicate_tables_complete(self):
        assert set(SWAPPED_PREDICATE) == set(ICMP_PREDICATES)
        assert set(INVERTED_PREDICATE) == set(ICMP_PREDICATES)

    def test_swapped_is_involution(self):
        for pred in ICMP_PREDICATES:
            assert SWAPPED_PREDICATE[SWAPPED_PREDICATE[pred]] == pred

    def test_inverted_is_involution(self):
        for pred in ICMP_PREDICATES:
            assert INVERTED_PREDICATE[INVERTED_PREDICATE[pred]] == pred

    def test_classification(self):
        assert ICmpInst("slt", arg(), arg()).is_signed()
        assert ICmpInst("ult", arg(), arg()).is_unsigned()
        assert ICmpInst("eq", arg(), arg()).is_equality()

    def test_bad_predicate(self):
        with pytest.raises(ValueError):
            ICmpInst("lt", arg(), arg())


class TestCasts:
    def test_cast_types(self):
        z = CastInst("zext", arg(I8), I32)
        assert z.src_type is I8 and z.type is I32

    def test_bad_opcode(self):
        with pytest.raises(ValueError):
            CastInst("bitcast", arg(), I32)


class TestSelectFreeze:
    def test_select_type(self):
        s = SelectInst(arg(I1, "c"), arg(), arg(I32, "b"))
        assert s.type is I32

    def test_freeze_type(self):
        f = FreezeInst(arg(I16))
        assert f.type is I16


class TestMemoryOps:
    def test_load(self):
        load = LoadInst(I32, arg(PTR, "p"), align=4)
        assert load.type is I32 and load.align == 4
        assert load.may_read_memory() and not load.may_write_memory()

    def test_store(self):
        store = StoreInst(arg(I32), arg(PTR, "p"))
        assert store.type.IS_VOID
        assert store.may_write_memory() and store.has_side_effects()


class TestTerminators:
    def test_ret_void(self):
        ret = RetInst()
        assert ret.return_value is None and ret.IS_TERMINATOR

    def test_ret_value(self):
        value = arg()
        assert RetInst(value).return_value is value

    def test_unconditional_br(self):
        block = BasicBlock("bb")
        br = BrInst(block)
        assert not br.is_conditional()
        assert br.successors() == [block]

    def test_conditional_br(self):
        t, f = BasicBlock("t"), BasicBlock("f")
        br = BrInst(arg(I1, "c"), t, f)
        assert br.is_conditional()
        assert br.successors() == [t, f]

    def test_br_arity(self):
        with pytest.raises(ValueError):
            BrInst(arg(I1, "c"), BasicBlock("x"))

    def test_switch(self):
        d, a = BasicBlock("d"), BasicBlock("a")
        sw = SwitchInst(arg(I8, "v"), d, [(ConstantInt(I8, 3), a)])
        assert sw.default is d
        assert sw.cases() == [(sw.operands[2], a)]
        assert sw.successors() == [d, a]

    def test_unreachable(self):
        assert UnreachableInst().IS_TERMINATOR


class TestPhi:
    def test_incoming(self):
        a, b = BasicBlock("a"), BasicBlock("b")
        x, y = arg(I32, "x"), arg(I32, "y")
        phi = PhiNode(I32, [(x, a), (y, b)])
        assert phi.incoming() == [(x, a), (y, b)]
        assert phi.incoming_value_for(a) is x
        assert phi.incoming_value_for(b) is y
        assert phi.incoming_value_for(BasicBlock("c")) is None

    def test_add_incoming(self):
        a = BasicBlock("a")
        phi = PhiNode(I32)
        phi.add_incoming(arg(), a)
        assert len(phi.incoming()) == 1
        assert a.num_uses() == 1

    def test_remove_incoming(self):
        a, b = BasicBlock("a"), BasicBlock("b")
        x, y = arg(I32, "x"), arg(I32, "y")
        phi = PhiNode(I32, [(x, a), (y, b)])
        phi.remove_incoming(a)
        assert phi.incoming() == [(y, b)]
        assert x.num_uses() == 0
        assert a.num_uses() == 0

    def test_set_incoming_value(self):
        a = BasicBlock("a")
        x, z = arg(I32, "x"), arg(I32, "z")
        phi = PhiNode(I32, [(x, a)])
        phi.set_incoming_value_for(a, z)
        assert phi.incoming_value_for(a) is z


class TestCallIntrinsicNames:
    def _call(self, name, args=()):
        from repro.ir.instructions import CallInst

        module = Module()
        ft = FunctionType(I32, tuple(a.type for a in args))
        callee = Function(ft, name, module)
        return CallInst(callee, list(args))

    def test_intrinsic_detection(self):
        call = self._call("llvm.smax.i32", (arg(), arg()))
        assert call.is_intrinsic()
        assert call.intrinsic_name() == "llvm.smax"

    def test_non_intrinsic(self):
        call = self._call("foo")
        assert not call.is_intrinsic()
        assert call.intrinsic_name() == ""

    def test_erase_from_parent(self):
        block = BasicBlock("bb")
        value = arg()
        add = BinaryOperator("add", value, value)
        block.append(add)
        add.erase_from_parent()
        assert add.parent is None
        assert value.num_uses() == 0
        assert len(block) == 0

"""Tests for the intrinsic registry and attribute sets."""

import pytest

from repro.ir import Attribute, AttributeSet, Module
from repro.ir.intrinsics import (GENERATABLE_BINARY_INTRINSICS,
                                 INTEGER_INTRINSICS, declare_assume,
                                 declare_intrinsic, intrinsic_base_name,
                                 lookup, overload_width, supports_width)


class TestNames:
    def test_base_name_strips_suffix(self):
        assert intrinsic_base_name("llvm.smax.i32") == "llvm.smax"
        assert intrinsic_base_name("llvm.sadd.sat.i8") == "llvm.sadd.sat"
        assert intrinsic_base_name("llvm.assume") == "llvm.assume"

    def test_overload_width(self):
        assert overload_width("llvm.smax.i32") == 32
        assert overload_width("llvm.assume") is None

    def test_lookup(self):
        assert lookup("llvm.smax.i32").commutative
        assert lookup("llvm.assume") is not None
        assert lookup("llvm.made.up") is None


class TestWidthSupport:
    def test_bswap_restricted(self):
        assert supports_width("llvm.bswap", 16)
        assert supports_width("llvm.bswap", 32)
        assert not supports_width("llvm.bswap", 8)
        assert not supports_width("llvm.bswap", 26)

    def test_polymorphic_any_width(self):
        assert supports_width("llvm.smax", 7)
        assert supports_width("llvm.ctpop", 26)

    def test_generatable_set_valid(self):
        for name in GENERATABLE_BINARY_INTRINSICS:
            info = INTEGER_INTRINSICS[name]
            assert info.num_args == 2


class TestDeclaration:
    def test_declare_creates_function(self):
        module = Module()
        fn = declare_intrinsic(module, "llvm.smax", 32)
        assert fn.name == "llvm.smax.i32"
        assert fn.is_declaration()
        assert fn.attributes.has("readnone")
        assert len(fn.function_type.param_types) == 2

    def test_declare_idempotent(self):
        module = Module()
        a = declare_intrinsic(module, "llvm.umin", 8)
        b = declare_intrinsic(module, "llvm.umin", 8)
        assert a is b

    def test_declare_flag_carrying(self):
        module = Module()
        fn = declare_intrinsic(module, "llvm.abs", 16)
        assert str(fn.function_type.param_types[1]) == "i1"

    def test_declare_rejects_bad_width(self):
        module = Module()
        with pytest.raises(ValueError):
            declare_intrinsic(module, "llvm.bswap", 26)

    def test_declare_assume(self):
        module = Module()
        fn = declare_assume(module)
        assert fn.name == "llvm.assume"
        assert fn.return_type.IS_VOID


class TestAttributeSet:
    def test_add_remove_toggle(self):
        attrs = AttributeSet()
        attrs.toggle(Attribute("nofree"))
        assert attrs.has("nofree")
        attrs.toggle(Attribute("nofree"))
        assert not attrs.has("nofree")

    def test_int_payload(self):
        attrs = AttributeSet([Attribute("dereferenceable", 8)])
        assert attrs.get_int("dereferenceable") == 8
        assert attrs.get_int("align") is None

    def test_replace_same_name(self):
        attrs = AttributeSet()
        attrs.add(Attribute("dereferenceable", 8))
        attrs.add(Attribute("dereferenceable", 16))
        assert len(attrs) == 1
        assert attrs.get_int("dereferenceable") == 16

    def test_str_forms(self):
        assert str(Attribute("nofree")) == "nofree"
        assert str(Attribute("dereferenceable", 2)) == "dereferenceable(2)"
        assert str(Attribute("align", 4)) == "align 4"

    def test_copy_is_independent(self):
        attrs = AttributeSet([Attribute("nofree")])
        copy = attrs.copy()
        copy.remove("nofree")
        assert attrs.has("nofree")

    def test_equality(self):
        assert AttributeSet([Attribute("a")]) == AttributeSet([Attribute("a")])
        assert AttributeSet([Attribute("a")]) != AttributeSet()

    def test_iteration_sorted(self):
        attrs = AttributeSet([Attribute("z"), Attribute("a")])
        assert [a.name for a in attrs] == ["a", "z"]

"""Tests for the interned type system."""

import pytest

from repro.ir import (FunctionType, I1, I8, I32, IntType, LabelType, PTR,
                      PtrType, VOID, VoidType, int_type)
from repro.ir.types import MAX_INT_BITS, same_type


class TestIntType:
    def test_interning(self):
        assert IntType(32) is IntType(32)
        assert IntType(7) is IntType(7)
        assert IntType(32) is not IntType(33)

    def test_singleton_aliases(self):
        assert I1 is IntType(1)
        assert I8 is IntType(8)
        assert I32 is IntType(32)

    def test_width(self):
        assert IntType(26).width == 26

    def test_mask(self):
        assert IntType(8).mask == 0xFF
        assert IntType(1).mask == 1
        assert IntType(3).mask == 7

    def test_signed_bounds(self):
        t = IntType(8)
        assert t.signed_min == -128
        assert t.signed_max == 127
        assert t.unsigned_max == 255

    def test_signed_bounds_i1(self):
        assert IntType(1).signed_min == -1
        assert IntType(1).signed_max == 0

    def test_str(self):
        assert str(IntType(26)) == "i26"

    @pytest.mark.parametrize("width", [0, -1, MAX_INT_BITS + 1, "8"])
    def test_invalid_widths(self, width):
        with pytest.raises(ValueError):
            IntType(width)

    def test_int_type_helper(self):
        assert int_type(12) is IntType(12)

    def test_classification(self):
        assert I32.IS_INTEGER
        assert not I32.IS_POINTER
        assert I32.IS_FIRST_CLASS


class TestOtherTypes:
    def test_void_singleton(self):
        assert VoidType() is VoidType()
        assert VOID.IS_VOID
        assert str(VOID) == "void"
        assert not VOID.IS_FIRST_CLASS

    def test_ptr_singleton(self):
        assert PtrType() is PtrType()
        assert PTR.IS_POINTER
        assert str(PTR) == "ptr"
        assert PTR.IS_FIRST_CLASS

    def test_label(self):
        assert LabelType() is LabelType()
        assert LabelType().IS_LABEL

    def test_same_type(self):
        assert same_type(IntType(5), IntType(5))
        assert not same_type(IntType(5), IntType(6))


class TestFunctionType:
    def test_interning(self):
        a = FunctionType(I32, (I32, PTR))
        b = FunctionType(I32, (I32, PTR))
        assert a is b

    def test_fields(self):
        ft = FunctionType(VOID, (I8,))
        assert ft.return_type is VOID
        assert ft.param_types == (I8,)
        assert not ft.is_vararg

    def test_vararg_distinct(self):
        assert FunctionType(I32, (), True) is not FunctionType(I32, (), False)

    def test_str(self):
        assert str(FunctionType(I32, (I8, PTR))) == "i32 (i8, ptr)"
        assert str(FunctionType(VOID, (), True)) == "void (...)"
        assert str(FunctionType(VOID, (I8,), True)) == "void (i8, ...)"

    def test_is_function(self):
        assert FunctionType(VOID, ()).IS_FUNCTION

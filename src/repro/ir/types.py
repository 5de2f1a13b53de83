"""Type system for the LLVM-like IR.

The reproduction models the part of LLVM's type system that the paper's
mutations exercise: arbitrary-bitwidth integers (``i1`` .. ``i128``),
opaque pointers (``ptr``), ``void``, labels (basic-block references), and
function types.  Types are interned so identity comparison (``is``) works,
matching how LLVM contexts unique their types.

What a type *is* is a class constant (``IS_INTEGER``, ``IS_POINTER``,
``IS_VOID``, ...), and an integer type's ``width`` and ``mask`` are plain
attributes: hot code reads them instead of calling a predicate or a
property (DESIGN §3, "IR classification and dispatch").
"""

from __future__ import annotations

from typing import Dict, Tuple


MAX_INT_BITS = 128


class Type:
    """Base class for all IR types.

    The ``IS_*`` constants classify a type by its class; each subclass
    sets its own.  First-class types (integers and pointers) are the ones
    instructions can produce and pass around.
    """

    IS_INTEGER = False
    IS_POINTER = False
    IS_VOID = False
    IS_LABEL = False
    IS_FUNCTION = False
    IS_FIRST_CLASS = False

    def __str__(self) -> str:  # pragma: no cover - overridden
        raise NotImplementedError


class VoidType(Type):
    IS_VOID = True

    _instance: "VoidType" = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "void"

    def __repr__(self) -> str:
        return "VoidType()"


class LabelType(Type):
    IS_LABEL = True

    _instance: "LabelType" = None

    def __new__(cls) -> "LabelType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "label"

    def __repr__(self) -> str:
        return "LabelType()"


class IntType(Type):
    """An integer type of a fixed bit width (``iN``).

    ``width`` and ``mask`` (all ones at this width) are plain attributes
    of the interned instance.
    """

    IS_INTEGER = True
    IS_FIRST_CLASS = True

    _cache: Dict[int, "IntType"] = {}

    def __new__(cls, width: int) -> "IntType":
        if not isinstance(width, int) or width < 1 or width > MAX_INT_BITS:
            raise ValueError(f"invalid integer width: {width!r}")
        cached = cls._cache.get(width)
        if cached is not None:
            return cached
        instance = super().__new__(cls)
        instance.width = width
        instance.mask = (1 << width) - 1
        cls._cache[width] = instance
        return instance

    @property
    def signed_min(self) -> int:
        return -(1 << (self.width - 1))

    @property
    def signed_max(self) -> int:
        return (1 << (self.width - 1)) - 1

    @property
    def unsigned_max(self) -> int:
        return self.mask

    def __str__(self) -> str:
        return f"i{self.width}"

    def __repr__(self) -> str:
        return f"IntType({self.width})"


class PtrType(Type):
    """An opaque pointer type (modern LLVM ``ptr``).

    Typed-pointer syntax such as ``i32*`` is accepted by the parser but is
    normalized to the opaque pointer type, just like contemporary LLVM.
    """

    IS_POINTER = True
    IS_FIRST_CLASS = True

    _instance: "PtrType" = None

    def __new__(cls) -> "PtrType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __str__(self) -> str:
        return "ptr"

    def __repr__(self) -> str:
        return "PtrType()"


class FunctionType(Type):
    """A function signature: return type plus parameter types."""

    IS_FUNCTION = True

    _cache: Dict[Tuple, "FunctionType"] = {}

    def __new__(cls, return_type: Type, param_types: Tuple[Type, ...],
                is_vararg: bool = False) -> "FunctionType":
        param_types = tuple(param_types)
        key = (return_type, param_types, is_vararg)
        cached = cls._cache.get(key)
        if cached is not None:
            return cached
        instance = super().__new__(cls)
        instance._return_type = return_type
        instance._param_types = param_types
        instance._is_vararg = is_vararg
        cls._cache[key] = instance
        return instance

    @property
    def return_type(self) -> Type:
        return self._return_type

    @property
    def param_types(self) -> Tuple[Type, ...]:
        return self._param_types

    @property
    def is_vararg(self) -> bool:
        return self._is_vararg

    def __str__(self) -> str:
        params = ", ".join(str(t) for t in self._param_types)
        if self._is_vararg:
            params = f"{params}, ..." if params else "..."
        return f"{self._return_type} ({params})"

    def __repr__(self) -> str:
        return f"FunctionType({self._return_type!r}, {self._param_types!r})"


# Convenient singletons, mirroring LLVM's Type::getInt32Ty-style accessors.
VOID = VoidType()
LABEL = LabelType()
PTR = PtrType()
I1 = IntType(1)
I8 = IntType(8)
I16 = IntType(16)
I32 = IntType(32)
I64 = IntType(64)
I128 = IntType(128)


def int_type(width: int) -> IntType:
    """Return the interned integer type of the given width."""
    return IntType(width)


def same_type(a: Type, b: Type) -> bool:
    """Interned types compare by identity; this spells the intent out."""
    return a is b

"""Intrinsic registry.

Intrinsics are modeled, as in LLVM, as calls to specially-named declared
functions (``llvm.smax.i32``).  The registry records each intrinsic's arity,
signature shape, and width constraints; concrete semantics live in
:mod:`repro.tv.semantics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .function import Function
from .module import Module
from .types import FunctionType, IntType, Type, VoidType


@dataclass(frozen=True)
class IntrinsicInfo:
    """Static description of one intrinsic family."""

    name: str                       # base name, e.g. "llvm.smax"
    num_args: int
    # Signature builder: given the overload IntType, produce (ret, params).
    # None means the intrinsic is not integer-overloaded.
    result_is_bool: bool = False
    valid_widths: Optional[Tuple[int, ...]] = None  # None = any width
    pure: bool = True               # no memory effects
    commutative: bool = False


# Integer-overloaded intrinsics usable by the mutation engine when it
# synthesizes fresh instructions (paper §IV-F generates smin/smax calls).
INTEGER_INTRINSICS: Dict[str, IntrinsicInfo] = {
    "llvm.smax": IntrinsicInfo("llvm.smax", 2, commutative=True),
    "llvm.smin": IntrinsicInfo("llvm.smin", 2, commutative=True),
    "llvm.umax": IntrinsicInfo("llvm.umax", 2, commutative=True),
    "llvm.umin": IntrinsicInfo("llvm.umin", 2, commutative=True),
    "llvm.abs": IntrinsicInfo("llvm.abs", 2),          # (value, is_int_min_poison i1)
    "llvm.ctpop": IntrinsicInfo("llvm.ctpop", 1),
    "llvm.ctlz": IntrinsicInfo("llvm.ctlz", 2),        # (value, is_zero_poison i1)
    "llvm.cttz": IntrinsicInfo("llvm.cttz", 2),
    "llvm.bswap": IntrinsicInfo("llvm.bswap", 1, valid_widths=(16, 32, 64)),
    "llvm.bitreverse": IntrinsicInfo("llvm.bitreverse", 1),
    "llvm.sadd.sat": IntrinsicInfo("llvm.sadd.sat", 2, commutative=True),
    "llvm.uadd.sat": IntrinsicInfo("llvm.uadd.sat", 2, commutative=True),
    "llvm.ssub.sat": IntrinsicInfo("llvm.ssub.sat", 2),
    "llvm.usub.sat": IntrinsicInfo("llvm.usub.sat", 2),
    "llvm.fshl": IntrinsicInfo("llvm.fshl", 3),
    "llvm.fshr": IntrinsicInfo("llvm.fshr", 3),
    "llvm.umul.with.overflow.bit": IntrinsicInfo(
        "llvm.umul.with.overflow.bit", 2, result_is_bool=True, commutative=True),
}

# Intrinsics that the mutation engine may freely generate as fresh
# instructions: binary, same-width in/out, no extra immediate arguments.
GENERATABLE_BINARY_INTRINSICS: Tuple[str, ...] = (
    "llvm.smax", "llvm.smin", "llvm.umax", "llvm.umin",
    "llvm.sadd.sat", "llvm.uadd.sat", "llvm.ssub.sat", "llvm.usub.sat",
)

OTHER_INTRINSICS: Dict[str, IntrinsicInfo] = {
    "llvm.assume": IntrinsicInfo("llvm.assume", 1, pure=False),
}


def intrinsic_base_name(full_name: str) -> str:
    """Strip trailing ``.iN`` overload suffixes: ``llvm.smax.i32`` → ``llvm.smax``."""
    parts = full_name.split(".")
    while len(parts) > 1 and parts[-1].startswith("i") and parts[-1][1:].isdigit():
        parts.pop()
    return ".".join(parts)


def lookup(full_name: str) -> Optional[IntrinsicInfo]:
    base = intrinsic_base_name(full_name)
    info = INTEGER_INTRINSICS.get(base)
    if info is not None:
        return info
    return OTHER_INTRINSICS.get(base)


def is_intrinsic_name(full_name: str) -> bool:
    return full_name.startswith("llvm.")


def overload_width(full_name: str) -> Optional[int]:
    """The ``iN`` suffix width of an overloaded intrinsic name, if any."""
    suffix = full_name.split(".")[-1]
    if suffix.startswith("i") and suffix[1:].isdigit():
        return int(suffix[1:])
    return None


def supports_width(base_name: str, width: int) -> bool:
    info = INTEGER_INTRINSICS.get(base_name)
    if info is None:
        return False
    if info.valid_widths is not None:
        return width in info.valid_widths
    return True


def declare_intrinsic(module: Module, base_name: str, width: int) -> Function:
    """Get-or-create the declaration for an integer-overloaded intrinsic."""
    info = INTEGER_INTRINSICS.get(base_name)
    if info is None:
        raise ValueError(f"unknown intrinsic {base_name}")
    if not supports_width(base_name, width):
        raise ValueError(f"{base_name} does not support width i{width}")
    full_name = f"{base_name}.i{width}"
    int_ty = IntType(width)
    params = _intrinsic_params(base_name, int_ty, info)
    ret: Type = IntType(1) if info.result_is_bool else int_ty
    function_type = FunctionType(ret, params)
    function = module.get_or_insert_function(full_name, function_type)
    if info.pure and not function.attributes.has("readnone"):
        from .attributes import Attribute

        function.attributes.add(Attribute("readnone"))
        function.attributes.add(Attribute("willreturn"))
        function.attributes.add(Attribute("nounwind"))
    return function


def declare_assume(module: Module) -> Function:
    function_type = FunctionType(VoidType(), (IntType(1),))
    function = module.get_or_insert_function("llvm.assume", function_type)
    return function


def _intrinsic_params(base_name: str, int_ty: IntType,
                      info: IntrinsicInfo) -> Tuple[Type, ...]:
    bool_ty = IntType(1)
    if base_name in ("llvm.abs", "llvm.ctlz", "llvm.cttz"):
        return (int_ty, bool_ty)
    if base_name in ("llvm.fshl", "llvm.fshr"):
        return (int_ty, int_ty, int_ty)
    if info.num_args == 1:
        return (int_ty,)
    return tuple(int_ty for _ in range(info.num_args))

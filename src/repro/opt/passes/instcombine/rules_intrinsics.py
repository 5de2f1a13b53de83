"""InstCombine rules for intrinsic calls.

Hosts two seeded crash bugs:

* 52884 — "analysis got thwarted by having both nuw and nsw on the add":
  folding smax/smin over an offset add crashes when the add carries both
  flags (the paper's Listing 15 shape).
* 56463 — "calling a function with a bad signature": the call-site
  combiner crashes when an ``undef`` argument meets a ``noundef``
  parameter it wants to exploit.
"""

from __future__ import annotations

from typing import Optional

from ....analysis.knownbits import is_known_non_negative
from ....ir.intrinsics import declare_intrinsic, supports_width
from ....ir.values import ConstantInt, Value
from ...rewrite import rule


def _intrinsic_call(inst, base: str) -> bool:
    return (inst.KIND == "call" and inst.is_intrinsic()
            and inst.intrinsic_name() == base)


def _minmax_base(inst) -> Optional[str]:
    if not (inst.KIND == "call" and inst.is_intrinsic()):
        return None
    base = inst.intrinsic_name()
    if base in ("llvm.smax", "llvm.smin", "llvm.umax", "llvm.umin"):
        return base
    return None


def rule_minmax_identity(inst, combine) -> Optional[Value]:
    """min/max with its identity bound folds to the other operand."""
    base = _minmax_base(inst)
    if base is None:
        return None
    x, y = inst.args
    if x is y:
        return x
    width = inst.type.width
    signed_min = 1 << (width - 1)
    signed_max = (1 << (width - 1)) - 1
    identities = {
        "llvm.smax": signed_min,
        "llvm.smin": signed_max,
        "llvm.umax": 0,
        "llvm.umin": inst.type.mask,
    }
    absorbers = {
        "llvm.smax": signed_max,
        "llvm.smin": signed_min,
        "llvm.umax": inst.type.mask,
        "llvm.umin": 0,
    }
    for value, other in ((x, y), (y, x)):
        if value.KIND == "int":
            if value.value == identities[base]:
                return other
            if value.value == absorbers[base]:
                # Absorbing bound: result is the constant — but only when
                # the other operand cannot be poison-free-required... the
                # constant refines poison, so this is always sound.
                return value
    return None


def rule_minmax_of_minmax(inst, combine) -> Optional[Value]:
    """smax(smax(x, C1), C2)  ->  smax(x, max(C1, C2)) (same family)."""
    base = _minmax_base(inst)
    if base is None:
        return None
    if combine.ctx.bug_enabled("52884"):
        for arg in inst.args:
            if arg.KIND == "binop" and arg.opcode == "add" \
                    and arg.nuw and arg.nsw:
                combine.ctx.crash(
                    "52884", "InstCombine: InstSimplify was expected to "
                             "squash the offset pattern but nuw+nsw add "
                             "thwarted the analysis")
    inner = outer_const = None
    for first, second in (inst.args, reversed(inst.args)):
        if second.KIND == "int" and first.KIND == "call" \
                and first.is_intrinsic() and first.intrinsic_name() == base \
                and first.num_uses() == 1:
            inner, outer_const = first, second
            break
    if inner is None:
        return None
    inner_const = next((a for a in inner.args if a.KIND == "int"),
                       None)
    if inner_const is None:
        return None
    inner_operand = inner.args[1] if inner.args[0] is inner_const \
        else inner.args[0]
    width = inst.type.width
    a = inner_const.signed_value() if base.startswith("llvm.s") else inner_const.value
    b = outer_const.signed_value() if base.startswith("llvm.s") else outer_const.value
    take_max = base.endswith("max")
    chosen = max(a, b) if take_max else min(a, b)
    module = combine.module
    if module is None or not supports_width(base, width):
        return None
    callee = declare_intrinsic(module, base, width)
    builder = combine.builder_before(inst)
    return builder.call(callee, [inner_operand,
                                 ConstantInt(inst.type, chosen)])


def rule_abs_of_nonnegative(inst, combine) -> Optional[Value]:
    """llvm.abs(x, f)  ->  x when x is known non-negative."""
    if not _intrinsic_call(inst, "llvm.abs"):
        return None
    if is_known_non_negative(inst.args[0], 0, combine.known_bits):
        return inst.args[0]
    return None


def rule_abs_of_abs(inst, combine) -> Optional[Value]:
    """llvm.abs(llvm.abs(x, f), g)  ->  inner abs when g is no stricter."""
    if not _intrinsic_call(inst, "llvm.abs"):
        return None
    inner = inst.args[0]
    if not _intrinsic_call(inner, "llvm.abs"):
        return None
    outer_flag = inst.args[1]
    inner_flag = inner.args[1]
    if outer_flag.KIND == "int" and inner_flag.KIND == "int":
        if outer_flag.value <= inner_flag.value:
            return inner
    return None


def rule_call_site_noundef(inst, combine) -> Optional[Value]:
    """Seeded crash 56463 ("calling a function with a bad signature"):
    the call-site combiner assumes arguments are well-formed values and
    dies when one is literally ``undef``."""
    if inst.KIND != "call" or inst.is_intrinsic():
        return None
    if not combine.ctx.bug_enabled("56463"):
        return None
    if any(value.KIND == "undef" for value in inst.args):
        combine.ctx.crash("56463", "call-site combine assumed a "
                                   "well-formed signature/argument pair")
    return None


RULES = [
    rule("minmax-identity", rule_minmax_identity, "call"),
    rule("minmax-of-minmax", rule_minmax_of_minmax, "call"),
    rule("abs-of-nonneg", rule_abs_of_nonnegative, "call"),
    rule("abs-of-abs", rule_abs_of_abs, "call"),
    rule("call-noundef-crash", rule_call_site_noundef, "call"),
]

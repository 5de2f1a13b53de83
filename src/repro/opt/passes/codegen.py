"""Codegen lowering: the architecture-independent backend substitute.

The paper found most of its bugs in LLVM's AArch64 backend and in
architecture-independent code-generation infrastructure (DAG combines,
legalization, GlobalISel).  This pass models that layer: it expands
intrinsics to primitive operations, matches machine-friendly idioms
(rotates, byte swaps, bitfield extracts), and *promotes* non-standard
integer widths (which the bitwidth-change mutation produces, e.g. ``i26``)
to the next legal width — the same promotion machinery whose sext/zext
selection bugs fill Table I.

Seeded bugs hosted here (ids are LLVM issue numbers; see
``repro.opt.bugs``): 55003, 55201, 55129, 55271, 55284, 55287, 55296,
55342, 55484, 55490, 55627, 55833, 58109, 58321, 58431 (miscompilations);
58423, 58425, 59757, 56377, 72034 (crashes).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from ...ir.builder import IRBuilder
from ...ir.function import Function
from ...ir.instructions import (BinaryOperator, CallInst, CastInst, FreezeInst,
                                Instruction)
from ...ir.intrinsics import declare_intrinsic, supports_width
from ...ir.types import IntType
from ...ir.values import ConstantInt, PoisonValue, UndefValue, Value
from ..context import OptContext
from ..pass_manager import FunctionPass, register_pass, replace_and_erase

LEGAL_WIDTHS = (1, 8, 16, 32, 64, 128)

# Library functions whose signatures TargetLibraryInfo knows (bug 59757).
_KNOWN_LIBFUNC_RETURNS: Dict[str, int] = {"printf": 32, "puts": 32,
                                          "putchar": 32}


def _next_legal_width(width: int) -> int:
    for legal in LEGAL_WIDTHS:
        if legal >= width:
            return legal
    return width


@register_pass("codegen")
class CodegenLowering(FunctionPass):
    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        changed = False
        # GlobalISel-style local CSE across expansions (bug 58423).
        self._expansion_cse: Dict[Tuple, Instruction] = {}
        # The (buggy) freeze combine runs before legalization/promotion,
        # like a GISel combiner pattern — promotion would otherwise hide
        # the flagged operand behind a trunc.
        if ctx.bug_enabled("58321"):
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.KIND == "freeze":
                        replacement = self._lower_freeze(inst, ctx)
                        if replacement is not None:
                            replace_and_erase(inst, replacement)
                            changed = True
        progress = True
        iterations = 0
        while progress and iterations < 8:
            progress = False
            iterations += 1
            for block in function.blocks:
                for inst in list(block.instructions):
                    if inst.parent is None:
                        continue
                    replacement = self._lower(inst, ctx)
                    if replacement is not None:
                        if replacement is not inst:
                            replace_and_erase(inst, replacement)
                        changed = True
                        progress = True
        return changed

    # -- dispatch --------------------------------------------------------------

    def _lower(self, inst: Instruction, ctx: OptContext) -> Optional[Value]:
        if inst.KIND == "call":
            if inst.is_intrinsic():
                return self._lower_intrinsic(inst, ctx)
            return self._check_libfunc(inst, ctx)
        if inst.KIND == "cast" and inst.opcode == "zext" \
                and inst.src_type.width == 1 and inst.type.width > 1:
            return self._lower_bool_zext(inst, ctx)
        if inst.KIND == "binop":
            lowered = self._match_idioms(inst, ctx)
            if lowered is not None:
                return lowered
            return self._promote_illegal_width(inst, ctx)
        if inst.KIND == "freeze":
            return self._lower_freeze(inst, ctx)
        return None

    # -- intrinsic expansion ------------------------------------------------------

    def _lower_intrinsic(self, inst: CallInst, ctx: OptContext) -> Optional[Value]:
        base = inst.intrinsic_name()
        if base == "llvm.abs":
            return self._expand_abs(inst, ctx)
        if base == "llvm.usub.sat":
            return self._expand_usub_sat(inst, ctx)
        if base == "llvm.uadd.sat":
            return self._expand_uadd_sat(inst, ctx)
        if base in ("llvm.fshl", "llvm.fshr"):
            if ctx.bug_enabled("56377") \
                    and inst.args[2].KIND != "int":
                ctx.crash("56377", "VectorCombine created a shuffle for an "
                                   "extract-extract pattern it cannot legalize")
            return None
        if base in ("llvm.sadd.sat", "llvm.ssub.sat"):
            if ctx.bug_enabled("72034") and inst.args[0] is inst.args[1]:
                ctx.crash("72034", "scalarizeVPIntrinsic emitted wrong code "
                                   "for identical operands")
            return None
        return None

    def _expand_abs(self, inst: CallInst, ctx: OptContext) -> Value:
        """abs(x, f) -> (x ^ s) - s with s = ashr x, w-1.

        Bug 55271 ("missing a freeze" in the ISD::ABS expansion): the
        buggy expansion tags the subtraction nsw even when the
        is-int-min-poison flag is false, so INT_MIN — well-defined in the
        source — becomes poison in the target.
        """
        key = ("abs", id(inst.args[0]), _flag_value(inst.args[1]))
        cached = self._expansion_cse.get(key)
        if cached is not None:
            if ctx.bug_enabled("58423"):
                # Bug 58423: the CSE'd builder hands back an entry without
                # checking it is still live (reuse of a removed
                # instruction); modeled as dying on any cache reuse.
                ctx.crash("58423", "CSEMIRBuilder reused a removed "
                                   "instruction")
            if cached.parent is not None:
                return cached
        width = inst.type.width
        flag_poisons = _flag_value(inst.args[1]) == 1
        builder = IRBuilder()
        builder.set_insert_before(inst)
        sign = builder.ashr(inst.args[0], ConstantInt(inst.type, width - 1))
        flipped = builder.xor(inst.args[0], sign)
        buggy_nsw = ctx.bug_enabled("55271") and not flag_poisons
        if buggy_nsw:
            ctx.note_bug_trigger("55271")
        result = builder.sub(flipped, sign,
                             nsw=flag_poisons or buggy_nsw)
        self._expansion_cse[key] = result
        return result

    def _expand_usub_sat(self, inst: CallInst, ctx: OptContext) -> Value:
        """usub.sat(x, y) -> select (x ugt y), x - y, 0.

        Bug 58109: the buggy expansion compares *signed*.
        """
        builder = IRBuilder()
        builder.set_insert_before(inst)
        predicate = "ugt"
        if ctx.bug_enabled("58109"):
            ctx.note_bug_trigger("58109")
            predicate = "sgt"
        compare = builder.icmp(predicate, inst.args[0], inst.args[1])
        difference = builder.sub(inst.args[0], inst.args[1])
        return builder.select(compare, difference,
                              ConstantInt(inst.type, 0))

    def _expand_uadd_sat(self, inst: CallInst, ctx: OptContext) -> Value:
        """uadd.sat(x, y) -> select (sum ult x), -1, sum (overflow check)."""
        builder = IRBuilder()
        builder.set_insert_before(inst)
        total = builder.add(inst.args[0], inst.args[1])
        overflowed = builder.icmp("ult", total, inst.args[0])
        return builder.select(overflowed,
                              ConstantInt(inst.type, inst.type.mask), total)

    # -- libfunc signatures (bug 59757) ------------------------------------------

    def _check_libfunc(self, inst: CallInst, ctx: OptContext) -> None:
        if not ctx.bug_enabled("59757"):
            return None
        expected = _KNOWN_LIBFUNC_RETURNS.get(inst.callee.name)
        if expected is None:
            return None
        return_type = inst.callee.return_type
        if not (return_type.IS_INTEGER
                and return_type.width == expected):
            ctx.crash("59757", "TargetLibraryInfo signature for "
                               f"{inst.callee.name} is wrong")
        return None

    # -- i1 materialization (bug 58431) ---------------------------------------------

    def _lower_bool_zext(self, inst: CastInst,
                         ctx: OptContext) -> Optional[Value]:
        """zext i1 x to iN -> select x, 1, 0.

        Bug 58431 ("wrong G_ZEXT selection in GISel"): the buggy lowering
        materializes -1 for true, i.e. sext semantics.

        Lowering is deferred while an lshr user is waiting to fold the
        zero-width bitfield extract (the 55129 path), so the two combines
        compose in either order.
        """
        for user in inst.users():
            if user.KIND == "binop" and user.opcode == "lshr" \
                    and user.operands[0] is inst \
                    and user.operands[1].KIND == "int" \
                    and 1 <= user.operands[1].value < user.type.width:
                return None
        builder = IRBuilder()
        builder.set_insert_before(inst)
        one = inst.type.mask if ctx.bug_enabled("58431") else 1
        if ctx.bug_enabled("58431"):
            ctx.note_bug_trigger("58431")
        return builder.select(inst.value, ConstantInt(inst.type, one),
                              ConstantInt(inst.type, 0))

    # -- machine idiom matching ---------------------------------------------------

    def _match_idioms(self, inst: BinaryOperator,
                      ctx: OptContext) -> Optional[Value]:
        if inst.opcode == "shl":
            return self._combine_shl_shl(inst, ctx)
        if inst.opcode == "lshr":
            return self._combine_lshr(inst, ctx)
        if inst.opcode == "and":
            return self._match_bitfield_extract(inst, ctx)
        if inst.opcode == "or":
            # Byte-swap recognition runs before the generic rotate match,
            # like the DAG combiner's MatchBSwapHWordLow.
            swapped = self._match_bswap_hword(inst, ctx)
            if swapped is not None:
                return swapped
            rotated = self._match_rotate(inst, ctx)
            if rotated is not None:
                return rotated
            return self._match_bitfield_insert(inst, ctx)
        if inst.opcode == "urem":
            return self._expand_urem_pow2(inst, ctx)
        if inst.opcode == "udiv" and ctx.bug_enabled("58425") \
                and inst.type.width not in LEGAL_WIDTHS:
            # Only the unsigned division path missed legalization (issue
            # 58425); sdiv goes through promotion, where the sext/zext
            # selection bugs live.
            ctx.crash("58425", "udiv did not reach the legalizer")
        return None

    def _combine_shl_shl(self, inst: BinaryOperator,
                         ctx: OptContext) -> Optional[Value]:
        """shl (shl x, C1), C2 -> shl x, C1+C2, or 0 when the total shift
        leaves the type.  Bug 55003: the buggy combine emits the combined
        shift even when C1+C2 >= width, turning a well-defined 0 into
        poison (the "shifts of undef" GISel combine family)."""
        inner = inst.operands[0]
        if not (inner.KIND == "binop" and inner.opcode == "shl"
                and inner.operands[1].KIND == "int"
                and inst.operands[1].KIND == "int"
                and inner.num_uses() == 1):
            return None
        width = inst.type.width
        c1, c2 = inner.operands[1].value, inst.operands[1].value
        if c1 >= width or c2 >= width:
            return None
        total = c1 + c2
        builder = IRBuilder()
        builder.set_insert_before(inst)
        if total >= width:
            if ctx.bug_enabled("55003"):
                ctx.note_bug_trigger("55003")
                return builder.shl(inner.operands[0],
                                   ConstantInt(inst.type, total))
            return ConstantInt(inst.type, 0)
        return None  # in-range combines belong to InstCombine

    def _combine_lshr(self, inst: BinaryOperator,
                      ctx: OptContext) -> Optional[Value]:
        """lshr (zext i1 b), C (C >= 1) -> 0.

        Bug 55129 (the paper's Listing 18): the buggy version treats the
        zero-width bitfield extract as the input and returns ``zext b``.
        """
        if not (inst.operands[1].KIND == "int"
                and 1 <= inst.operands[1].value < inst.type.width):
            return None
        source = inst.operands[0]
        is_bool = (source.KIND == "cast" and source.opcode == "zext"
                   and source.src_type.width == 1)
        if not is_bool:
            # The i1 zext may already have been lowered to select c, 1, 0.
            is_bool = (source.KIND == "select"
                       and source.true_value.KIND == "int"
                       and source.true_value.is_one()
                       and source.false_value.KIND == "int"
                       and source.false_value.is_zero())
        if not is_bool:
            return None
        if ctx.bug_enabled("55129"):
            ctx.note_bug_trigger("55129")
            return source
        return ConstantInt(inst.type, 0)

    def _match_bitfield_extract(self, inst: BinaryOperator,
                                ctx: OptContext) -> Optional[Value]:
        """and (lshr x, C), mask -> UBFX-style canonical form.

        When C + popcount(mask) == width the mask is redundant and the
        extract is just the shift.  Bug 55833 (tryBitfieldExtractOp vs
        isDef32): the buggy condition drops the mask one bit too early
        (>= width - 1).
        """
        shift = inst.operands[0]
        if not (shift.KIND == "binop" and shift.opcode == "lshr"
                and shift.operands[1].KIND == "int"
                and inst.operands[1].KIND == "int"):
            return None
        mask = inst.operands[1].value
        if mask == 0 or (mask & (mask + 1)) != 0:
            return None  # not a low-bit mask
        width = inst.type.width
        bits = mask.bit_length()
        c = shift.operands[1].value
        if c >= width:
            return None
        threshold = width - 1 if ctx.bug_enabled("55833") else width
        if c + bits >= threshold:
            if c + bits < width:
                ctx.note_bug_trigger("55833")
            return shift
        return None

    def _match_rotate(self, inst: BinaryOperator,
                      ctx: OptContext) -> Optional[Value]:
        """or (shl x, C), (lshr x, W-C) -> fshl(x, x, C).

        Bug 55201: a "disguised rotate" whose operands carry masks must
        apply LHSMask/RHSMask — the buggy matcher looks through the masks
        and ignores them.
        """
        shl = lshr = None
        for first, second in (inst.operands, inst.operands[::-1]):
            if first.KIND == "binop" and first.opcode == "shl" \
                    and second.KIND == "binop" \
                    and second.opcode == "lshr":
                shl, lshr = first, second
                break
        if shl is None:
            return None

        def strip_mask(value: Value) -> Tuple[Value, bool]:
            if value.KIND == "binop" and value.opcode == "and" \
                    and value.operands[1].KIND == "int":
                return value.operands[0], True
            return value, False

        shl_src, shl_masked = shl.operands[0], False
        lshr_src, lshr_masked = lshr.operands[0], False
        if ctx.bug_enabled("55201"):
            shl_src, shl_masked = strip_mask(shl.operands[0])
            lshr_src, lshr_masked = strip_mask(lshr.operands[0])
        if shl_src is not lshr_src:
            return None
        if not (shl.operands[1].KIND == "int"
                and lshr.operands[1].KIND == "int"):
            return None
        width = inst.type.width
        c = shl.operands[1].value
        if c == 0 or c >= width or lshr.operands[1].value != width - c:
            return None
        module = self._module(inst)
        if module is None or not supports_width("llvm.fshl", width):
            return None
        if shl_masked or lshr_masked:
            ctx.note_bug_trigger("55201")
        callee = declare_intrinsic(module, "llvm.fshl", width)
        builder = IRBuilder()
        builder.set_insert_before(inst)
        return builder.call(callee, [shl_src, shl_src,
                                     ConstantInt(inst.type, c)])

    def _match_bitfield_insert(self, inst: BinaryOperator,
                               ctx: OptContext) -> Optional[Value]:
        """or (and x, C1), (and y, C2) with complementary masks is a
        bitfield insert (BFI/BFXIL).

        Bug 55284 (GlobalISel or+and miscompile): the buggy selection
        drops the second mask.
        """
        if not ctx.bug_enabled("55284"):
            return None
        lhs, rhs = inst.operands[0], inst.operands[1]
        if not (lhs.KIND == "binop" and lhs.opcode == "and"
                and rhs.KIND == "binop" and rhs.opcode == "and"
                and lhs.operands[1].KIND == "int"
                and rhs.operands[1].KIND == "int"):
            return None
        if (lhs.operands[1].value ^ rhs.operands[1].value) != inst.type.mask:
            return None
        ctx.note_bug_trigger("55284")
        builder = IRBuilder()
        builder.set_insert_before(inst)
        return builder.or_(lhs, rhs.operands[0])

    def _match_bswap_hword(self, inst: BinaryOperator,
                           ctx: OptContext) -> Optional[Value]:
        """or (shl x, 8), (lshr x, 8) on i16 -> llvm.bswap.i16.

        Bug 55484 (MatchBSwapHWordLow): the buggy matcher accepts any pair
        of shift amounts summing to 16.
        """
        if inst.type.width != 16:
            return None
        shl = lshr = None
        for first, second in (inst.operands, inst.operands[::-1]):
            if first.KIND == "binop" and first.opcode == "shl" \
                    and second.KIND == "binop" \
                    and second.opcode == "lshr":
                shl, lshr = first, second
                break
        if shl is None or shl.operands[0] is not lshr.operands[0]:
            return None
        if not (shl.operands[1].KIND == "int"
                and lshr.operands[1].KIND == "int"):
            return None
        c1, c2 = shl.operands[1].value, lshr.operands[1].value
        buggy = ctx.bug_enabled("55484")
        if not buggy and not (c1 == 8 and c2 == 8):
            return None
        if buggy and not (0 < c1 < 16 and c1 + c2 == 16):
            return None
        if buggy and c1 != 8:
            ctx.note_bug_trigger("55484")
        module = self._module(inst)
        if module is None:
            return None
        callee = declare_intrinsic(module, "llvm.bswap", 16)
        builder = IRBuilder()
        builder.set_insert_before(inst)
        return builder.call(callee, [shl.operands[0]])

    def _expand_urem_pow2(self, inst: BinaryOperator,
                          ctx: OptContext) -> Optional[Value]:
        """urem x, 2**k -> and x, 2**k - 1.

        Bug 55287 (urem+udiv GISel miscompile): the buggy expansion masks
        with the modulus itself instead of modulus-1.
        """
        if inst.operands[1].KIND != "int":
            return None
        modulus = inst.operands[1].value
        if modulus == 0 or modulus & (modulus - 1):
            return None
        builder = IRBuilder()
        builder.set_insert_before(inst)
        if ctx.bug_enabled("55287"):
            ctx.note_bug_trigger("55287")
            return builder.and_(inst.operands[0],
                                ConstantInt(inst.type, modulus))
        return builder.and_(inst.operands[0],
                            ConstantInt(inst.type, modulus - 1))

    # -- width promotion (bugs 55296, 55342, 55490, 55627) -----------------------------

    _PROMOTE_OPCODES = ("add", "sub", "mul", "udiv", "urem", "sdiv", "srem",
                        "and", "or", "xor")

    def _promote_illegal_width(self, inst: BinaryOperator,
                               ctx: OptContext) -> Optional[Value]:
        """Promote a non-legal-width op (e.g. i26) to the next legal width.

        Unsigned ops extend with zext, signed ops with sext, and the
        result truncates back.  The seeded bugs pick the wrong extension:

        * 55342 — constants of signed ops are zero-extended ("sext and
          zext selection in promoted constant");
        * 55490 — same family, for the non-constant operand of srem;
        * 55627 — same family, for sdiv's left operand;
        * 55296 — urem's left operand is *sign*-extended ("didn't clear
          the promoted bits before urem").
        """
        width = inst.type.width
        if width in LEGAL_WIDTHS or width > 64:
            return None
        if inst.opcode not in self._PROMOTE_OPCODES:
            return None
        wide_width = _next_legal_width(width)
        wide = IntType(wide_width)
        signed = inst.opcode in ("sdiv", "srem")
        builder = IRBuilder()
        builder.set_insert_before(inst)

        def extend(value: Value, use_sext: bool) -> Value:
            if value.KIND == "int":
                source = value.signed_value() if use_sext else value.value
                return ConstantInt(wide, source & wide.mask)
            return builder.sext(value, wide) if use_sext \
                else builder.zext(value, wide)

        lhs_sext = signed
        rhs_sext = signed
        if signed and ctx.bug_enabled("55342") \
                and inst.operands[1].KIND == "int":
            ctx.note_bug_trigger("55342")
            rhs_sext = False
        if inst.opcode == "srem" and ctx.bug_enabled("55490") \
                and inst.operands[1].KIND != "int":
            ctx.note_bug_trigger("55490")
            rhs_sext = False
        if inst.opcode == "sdiv" and ctx.bug_enabled("55627"):
            ctx.note_bug_trigger("55627")
            lhs_sext = False
        if inst.opcode == "urem" and ctx.bug_enabled("55296"):
            ctx.note_bug_trigger("55296")
            lhs_sext = True

        # Division needs exact ranges; bit ops and add/sub/mul are width-
        # agnostic in the low bits, so any extension works for them.
        wide_lhs = extend(inst.operands[0], lhs_sext)
        wide_rhs = extend(inst.operands[1], rhs_sext)
        wide_op = builder.binop(inst.opcode, wide_lhs, wide_rhs)
        return builder.trunc(wide_op, inst.type)

    # -- freeze handling (bug 58321) -------------------------------------------------

    def _lower_freeze(self, inst: FreezeInst,
                      ctx: OptContext) -> Optional[Value]:
        """Bug 58321 ("miscompilation of a frozen poison"): the buggy
        lowering drops a freeze guarding flagged arithmetic or a literal
        poison/undef, re-exposing what the source had neutralized."""
        if not ctx.bug_enabled("58321"):
            return None
        value = inst.value
        if isinstance(value, (PoisonValue, UndefValue)) \
                or (value.KIND == "binop"
                    and (value.nuw or value.nsw or value.exact)):
            ctx.note_bug_trigger("58321")
            return value
        return None

    @staticmethod
    def _module(inst: Instruction):
        function = inst.function
        return function.parent if function is not None else None


def _flag_value(value: Value) -> int:
    if value.KIND == "int":
        return value.value
    return -1

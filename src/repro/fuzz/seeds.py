"""Synthetic seed generators in the style of LLVM's unit tests.

The paper draws seeds from LLVM's 29,243-file IR test suite (small files,
mostly InstCombine regression tests).  Offline, this module generates a
deterministic seed set with the same flavor: small functions probing clamp
patterns, flagged arithmetic, shift/mask idioms, memory ping-pong across
opaque calls, saturating/min-max intrinsics, assume bundles, loops, and
multi-function files with inlinable helpers.  Several archetypes are
modeled directly on the paper's listings (noted inline).

This module used to be ``repro.fuzz.corpus``; it was renamed when the
*runtime* corpus (coverage-selected mutants, see
:mod:`repro.fuzz.corpus`) took that name.
"""

from __future__ import annotations

import random
from typing import Callable, List, Sequence, Tuple

__all__ = ["ARCHETYPES", "STANDARD_WIDTHS", "corpus_modules",
           "generate_corpus", "generate_large_corpus"]

STANDARD_WIDTHS = (8, 16, 32, 64)


def _width(rng: random.Random) -> int:
    return rng.choice(STANDARD_WIDTHS)


def _const(rng: random.Random, width: int) -> int:
    mask = (1 << width) - 1
    choice = rng.random()
    if choice < 0.3:
        return rng.choice([0, 1, 2, 16, mask, mask >> 1]) & mask
    if choice < 0.6:
        return rng.randrange(0, 256) & mask
    value = rng.getrandbits(width)
    return value & mask


def _signed_const(rng: random.Random, width: int) -> int:
    value = _const(rng, width)
    if value >= 1 << (width - 1):
        return value - (1 << width)
    return value


# ---------------------------------------------------------------------------
# Archetypes.  Each returns .ll text for one file.
# ---------------------------------------------------------------------------


def archetype_clamp_select(rng: random.Random, index: int) -> str:
    """Fig. 1 / Listing 1 flavor: icmp + select range tests."""
    w = _width(rng)
    c1 = _signed_const(rng, w)
    c2 = _const(rng, w)
    pred1 = rng.choice(["slt", "sgt", "ult", "ugt"])
    pred2 = rng.choice(["ult", "ugt", "slt", "sle"])
    return f"""
define i{w} @clamp_{index}(i{w} %x, i{w} %low, i{w} %high) {{
  %t0 = icmp {pred1} i{w} %x, {c1}
  %t1 = select i1 %t0, i{w} %low, i{w} %high
  %t2 = add i{w} %x, {_signed_const(rng, w)}
  %t3 = icmp {pred2} i{w} %t2, {c2}
  %r = select i1 %t3, i{w} %x, i{w} %t1
  ret i{w} %r
}}
"""


def archetype_flagged_arithmetic(rng: random.Random, index: int) -> str:
    w = _width(rng)
    op1 = rng.choice(["add", "sub", "mul"])
    op2 = rng.choice(["add", "sub", "mul", "shl"])
    flags1 = rng.choice(["", " nsw", " nuw", " nuw nsw"])
    flags2 = rng.choice(["", " nsw", " nuw"])
    op3 = rng.choice(["and", "or", "xor"])
    return f"""
define i{w} @arith_{index}(i{w} %a, i{w} %b) {{
  %t0 = {op1}{flags1} i{w} %a, {_signed_const(rng, w)}
  %t1 = {op2}{flags2} i{w} %t0, %b
  %t2 = {op3} i{w} %t1, %a
  ret i{w} %t2
}}
"""


def archetype_memory_pingpong(rng: random.Random, index: int) -> str:
    """Listing 4 flavor: loads separated by a clobbering call."""
    w = _width(rng)
    return f"""
declare void @clobber(ptr)

define i{w} @test9_{index}(ptr %p, ptr %q) {{
  %a = load i{w}, ptr %q
  call void @clobber(ptr %p)
  %b = load i{w}, ptr %q
  %c = sub i{w} %a, %b
  ret i{w} %c
}}
"""


def archetype_minmax_offset(rng: random.Random, index: int) -> str:
    """Listing 15 flavor: min/max intrinsic over a flagged add."""
    w = _width(rng)
    kind = rng.choice(["smax", "smin", "umax", "umin"])
    flags = rng.choice(["", " nuw", " nsw", " nuw nsw"])
    return f"""
declare i{w} @llvm.{kind}.i{w}(i{w}, i{w})

define i{w} @{kind}_offset_{index}(i{w} %x) {{
  %1 = add{flags} i{w} {_signed_const(rng, w)}, %x
  %m = call i{w} @llvm.{kind}.i{w}(i{w} %1, i{w} {_signed_const(rng, w)})
  ret i{w} %m
}}
"""


def archetype_shift_mask(rng: random.Random, index: int) -> str:
    """Rotates, byte swaps, and bitfield extracts (backend idiom food)."""
    w = rng.choice([16, 32, 64])
    c = rng.randrange(1, w)
    extract_shift = rng.randrange(0, w)
    if rng.random() < 0.4:
        # Bias toward the bitfield-extract width boundary (bug 55833's
        # off-by-one lives at shift + mask_bits == width - 1).
        bits = max(1, w - 1 - extract_shift)
    else:
        bits = rng.randrange(1, w)
    mask = (1 << bits) - 1
    return f"""
define i{w} @shifty_{index}(i{w} %x) {{
  %hi = shl i{w} %x, {c}
  %lo = lshr i{w} %x, {w - c}
  %rot = or i{w} %hi, %lo
  %ext = lshr i{w} %rot, {extract_shift}
  %r = and i{w} %ext, {mask}
  ret i{w} %r
}}
"""


def archetype_zext_mul_overflow(rng: random.Random, index: int) -> str:
    """Listing 17 flavor: the (zext a) * (zext b) overflow trap."""
    narrow = rng.choice([8, 16, 32])
    mid = narrow * 2 - rng.randrange(1, narrow)
    wide = narrow * 2
    bound = (1 << narrow) - 1
    return f"""
define i1 @pr4917_{index}(i{narrow} %x) {{
entry:
  %r = zext i{narrow} %x to i{wide}
  %0 = trunc i{wide} %r to i{mid}
  %new0 = mul i{mid} %0, %0
  %last = zext i{mid} %new0 to i{wide}
  %res = icmp ule i{wide} %last, {bound}
  ret i1 %res
}}
"""


def archetype_assume_align(rng: random.Random, index: int) -> str:
    """Listing 16 flavor: an assume with an align operand bundle."""
    w = rng.choice([8, 16, 32])
    align = rng.choice([4, 8, 16, 32, 64, 128])
    return f"""
declare void @llvm.assume(i1)

define i{w} @align_{index}(ptr %p) {{
  call void @llvm.assume(i1 true) [ "align"(ptr %p, i64 {align}) ]
  %v = load i{w}, ptr %p
  ret i{w} %v
}}
"""


def archetype_loop(rng: random.Random, index: int) -> str:
    w = rng.choice([8, 16, 32])
    step = rng.choice([1, 2, 3])
    return f"""
define i{w} @loop_{index}(i{w} %n) {{
entry:
  br label %header

header:
  %i = phi i{w} [ 0, %entry ], [ %next, %body ]
  %acc = phi i{w} [ 1, %entry ], [ %acc2, %body ]
  %cmp = icmp ult i{w} %i, %n
  br i1 %cmp, label %body, label %exit

body:
  %next = add nuw i{w} %i, {step}
  %acc2 = add i{w} %acc, %i
  br label %header

exit:
  ret i{w} %acc
}}
"""


def archetype_multi_function(rng: random.Random, index: int) -> str:
    """Several compatible helpers: fodder for the inlining mutation."""
    w = _width(rng)
    c = _signed_const(rng, w)
    return f"""
declare void @clobber(ptr)

define void @store_{index}(ptr %ptr) {{
  store i{w} {c}, ptr %ptr
  ret void
}}

define void @touch_{index}(ptr %ptr) {{
  %v = load i{w}, ptr %ptr
  %d = add i{w} %v, 1
  store i{w} %d, ptr %ptr
  ret void
}}

define i{w} @driver_{index}(ptr %p, ptr %q) {{
  %a = load i{w}, ptr %q
  call void @clobber(ptr %p)
  call void @store_{index}(ptr %p)
  %b = load i{w}, ptr %q
  %c = sub i{w} %a, %b
  ret i{w} %c
}}
"""


def archetype_saturating(rng: random.Random, index: int) -> str:
    w = _width(rng)
    kind = rng.choice(["usub.sat", "uadd.sat", "ssub.sat", "sadd.sat"])
    return f"""
declare i{w} @llvm.{kind}.i{w}(i{w}, i{w})

define i{w} @sat_{index}(i{w} %x, i{w} %y) {{
  %s = call i{w} @llvm.{kind}.i{w}(i{w} %x, i{w} %y)
  %r = add i{w} %s, {_signed_const(rng, w)}
  ret i{w} %r
}}
"""


def archetype_abs(rng: random.Random, index: int) -> str:
    w = _width(rng)
    poison_flag = rng.choice(["true", "false"])
    return f"""
declare i{w} @llvm.abs.i{w}(i{w}, i1)

define i{w} @abs_{index}(i{w} %x) {{
  %a = call i{w} @llvm.abs.i{w}(i{w} %x, i1 {poison_flag})
  %b = call i{w} @llvm.abs.i{w}(i{w} %a, i1 {poison_flag})
  ret i{w} %b
}}
"""


def archetype_freeze(rng: random.Random, index: int) -> str:
    """Frozen flagged arithmetic plus a frozen poison literal escaping
    through memory — both shapes LLVM's freeze regression tests use.
    The literal uses a tiny width so the validator can enumerate the
    freeze's choices exhaustively."""
    w = rng.choice([8, 16, 32])
    narrow = rng.choice([2, 3])
    flags = rng.choice([" nsw", " nuw", " nuw nsw"])
    return f"""
define i{w} @fr_{index}(i{w} %x, i{w} %y, ptr %q) {{
  %p = freeze i{narrow} poison
  store i{narrow} %p, ptr %q
  %a = add{flags} i{w} %x, %y
  %f = freeze i{w} %a
  %r = mul i{w} %f, {_signed_const(rng, w)}
  ret i{w} %r
}}
"""


def archetype_bool_lshr(rng: random.Random, index: int) -> str:
    """Listing 18 flavor: lshr of a zext'd i1."""
    w = rng.choice([16, 32, 64])
    return f"""
define i{w} @lsr_zext_{index}(i1 %b) {{
  %1 = zext i1 %b to i{w}
  %2 = lshr i{w} %1, {rng.randrange(1, 4)}
  ret i{w} %2
}}
"""


def archetype_constant_select(rng: random.Random, index: int) -> str:
    """Listing 19 flavor: constant arithmetic feeding a select."""
    w = rng.choice([8, 16, 32])
    return f"""
define i32 @f_{index}() {{
  %1 = sub i{w} {_signed_const(rng, w)}, 0
  %2 = icmp ugt i{w} {_signed_const(rng, w)}, %1
  %3 = select i1 %2, i32 1, i32 0
  ret i32 %3
}}
"""


def archetype_alloca(rng: random.Random, index: int) -> str:
    w = rng.choice([8, 16, 32])
    uninit = rng.random() < 0.3
    first = "" if uninit else f"  store i{w} {_const(rng, w)}, ptr %slot\n"
    return f"""
define i{w} @stack_{index}(i{w} %x) {{
  %slot = alloca i{w}
{first}  %v = load i{w}, ptr %slot
  %r = add i{w} %v, %x
  store i{w} %r, ptr %slot
  %out = load i{w}, ptr %slot
  ret i{w} %out
}}
"""


def archetype_printf(rng: random.Random, index: int) -> str:
    """A libfunc declaration with a wrong signature (TargetLibraryInfo)."""
    ret = rng.choice(["i64", "i32", "i8"])
    return f"""
declare {ret} @printf(ptr)

define {ret} @log_{index}(ptr %fmt, i32 %x) {{
  %r = call {ret} @printf(ptr %fmt)
  ret {ret} %r
}}
"""


def archetype_minmax_clamp(rng: random.Random, index: int) -> str:
    """select (icmp x, C), x, C — the canonicalizeClampLike shape."""
    w = _width(rng)
    c = _const(rng, w)
    pred = rng.choice(["ult", "ugt", "slt", "sgt"])
    order = rng.random() < 0.5
    arms = f"i{w} %x, i{w} {c}" if order else f"i{w} {c}, i{w} %x"
    return f"""
define i{w} @minclamp_{index}(i{w} %x) {{
  %c = icmp {pred} i{w} %x, {c}
  %r = select i1 %c, {arms}
  ret i{w} %r
}}
"""


def archetype_mask_shift(rng: random.Random, index: int) -> str:
    """The opposite-shifts-of-minus-one shape (bug 50693's neighborhood)."""
    w = _width(rng)
    return f"""
define i{w} @maskshift_{index}(i{w} %x, i{w} %n) {{
  %m = shl i{w} -1, %n
  %r = lshr i{w} %m, %n
  %k = and i{w} %r, %x
  ret i{w} %k
}}
"""


def archetype_double_shift(rng: random.Random, index: int) -> str:
    """shl-of-shl chains whose total may leave the type (bug 55003 food)."""
    w = _width(rng)
    c1 = rng.randrange(1, w)
    c2 = rng.randrange(1, w)
    return f"""
define i{w} @dshift_{index}(i{w} %x) {{
  %a = shl i{w} %x, {c1}
  %b = shl i{w} %a, {c2}
  %c = or i{w} %b, 1
  ret i{w} %c
}}
"""


def archetype_masked_rotate(rng: random.Random, index: int) -> str:
    """A disguised rotate whose shl operand carries a mask (bug 55201)."""
    w = rng.choice([16, 32, 64])
    c = rng.randrange(1, w)
    mask = _const(rng, w) | 1
    return f"""
define i{w} @mrot_{index}(i{w} %x) {{
  %t = and i{w} %x, {mask}
  %hi = shl i{w} %t, {c}
  %lo = lshr i{w} %x, {w - c}
  %r = or i{w} %hi, %lo
  ret i{w} %r
}}
"""


def archetype_bitfield_insert(rng: random.Random, index: int) -> str:
    """Complementary-mask or+and (the GlobalISel BFI shape, bug 55284)."""
    w = rng.choice([8, 16, 32])
    mask = _const(rng, w)
    inverse = ((1 << w) - 1) ^ mask
    return f"""
define i{w} @bfi_{index}(i{w} %x, i{w} %y) {{
  %lo = and i{w} %x, {mask}
  %hi = and i{w} %y, {inverse}
  %r = or i{w} %lo, %hi
  ret i{w} %r
}}
"""


def archetype_gvn_duplicates(rng: random.Random, index: int) -> str:
    """Identical computations differing only in poison flags (bug 53218).

    The flagged twin escapes through memory while the plain twin is the
    return value, so keeping the leader's stronger flags is observable.
    """
    w = _width(rng)
    op = rng.choice(["add", "sub", "mul"])
    flags = rng.choice(["nsw", "nuw", "nuw nsw"])
    return f"""
define i{w} @dup_{index}(i{w} %x, i{w} %y, ptr %p) {{
  %a = {op} {flags} i{w} %x, %y
  store i{w} %a, ptr %p
  %b = {op} i{w} %x, %y
  ret i{w} %b
}}
"""


def archetype_division(rng: random.Random, index: int) -> str:
    """Signed/unsigned division and remainder chains."""
    w = _width(rng)
    op1 = rng.choice(["sdiv", "udiv"])
    op2 = rng.choice(["srem", "urem"])
    c = max(2, _const(rng, w) or 2)
    return f"""
define i{w} @div_{index}(i{w} %a, i{w} %b) {{
  %q = {op1} i{w} %a, {c}
  %r = {op2} i{w} %q, %b
  ret i{w} %r
}}
"""


def archetype_funnel_shift(rng: random.Random, index: int) -> str:
    """Funnel shifts with a variable amount (VectorCombine food)."""
    w = rng.choice([8, 16, 32])
    kind = rng.choice(["fshl", "fshr"])
    return f"""
declare i{w} @llvm.{kind}.i{w}(i{w}, i{w}, i{w})

define i{w} @funnel_{index}(i{w} %x, i{w} %y, i{w} %z) {{
  %r = call i{w} @llvm.{kind}.i{w}(i{w} %x, i{w} %y, i{w} %z)
  ret i{w} %r
}}
"""


def archetype_punned_alloca(rng: random.Random, index: int) -> str:
    """A type-punned stack slot: stored wide, loaded narrow (SROA food)."""
    wide = rng.choice([16, 32, 64])
    narrow = rng.choice([8, 16])
    if narrow >= wide:
        narrow = 8
    return f"""
define i{narrow} @pun_{index}(i{wide} %x) {{
  %slot = alloca i{wide}
  store i{wide} %x, ptr %slot
  %v = load i{narrow}, ptr %slot
  ret i{narrow} %v
}}
"""


def archetype_abs_twice(rng: random.Random, index: int) -> str:
    """Two abs calls over the same value (expansion-CSE food, bug 58423)."""
    w = _width(rng)
    flag = rng.choice(["true", "false"])
    return f"""
declare i{w} @llvm.abs.i{w}(i{w}, i1)

define i{w} @abs2_{index}(i{w} %x) {{
  %a = call i{w} @llvm.abs.i{w}(i{w} %x, i1 {flag})
  %b = call i{w} @llvm.abs.i{w}(i{w} %x, i1 {flag})
  %r = add i{w} %a, %b
  ret i{w} %r
}}
"""


def archetype_odd_width(rng: random.Random, index: int) -> str:
    """Non-legal integer widths straight from the seed (promotion food)."""
    w = rng.choice([7, 13, 17, 26, 33])
    op = rng.choice(["sdiv", "srem", "udiv", "urem", "mul"])
    c = max(2, _const(rng, min(w, 16)))
    return f"""
define i{w} @odd_{index}(i{w} %a, i{w} %b) {{
  %x = {op} i{w} %a, {c}
  %y = add i{w} %x, %b
  ret i{w} %y
}}
"""


def archetype_loop_invariant(rng: random.Random, index: int) -> str:
    """Loops with hoistable invariants (LICM food)."""
    w = rng.choice([8, 16, 32])
    op = rng.choice(["mul", "xor", "and", "or"])
    return f"""
define i{w} @linv_{index}(i{w} %n, i{w} %k) {{
entry:
  br label %header

header:
  %i = phi i{w} [ 0, %entry ], [ %next, %body ]
  %acc = phi i{w} [ 0, %entry ], [ %acc2, %body ]
  %c = icmp ult i{w} %i, %n
  br i1 %c, label %body, label %exit

body:
  %inv = {op} i{w} %k, {_const(rng, w)}
  %acc2 = add i{w} %acc, %inv
  %next = add nuw i{w} %i, 1
  br label %header

exit:
  ret i{w} %acc
}}
"""


def archetype_dead_stores(rng: random.Random, index: int) -> str:
    """Store chains with overwrites and an interleaved load (DSE food)."""
    w = rng.choice([8, 16, 32])
    return f"""
define i{w} @ds_{index}(ptr %p, i{w} %a, i{w} %b) {{
  store i{w} %a, ptr %p
  store i{w} {_const(rng, w)}, ptr %p
  %v = load i{w}, ptr %p
  store i{w} %b, ptr %p
  store i{w} %v, ptr %p
  %out = load i{w}, ptr %p
  ret i{w} %out
}}
"""


ARCHETYPES: Sequence[Tuple[str, Callable[[random.Random, int], str]]] = (
    ("clamp", archetype_clamp_select),
    ("arith", archetype_flagged_arithmetic),
    ("memory", archetype_memory_pingpong),
    ("minmax", archetype_minmax_offset),
    ("shift", archetype_shift_mask),
    ("zextmul", archetype_zext_mul_overflow),
    ("assume", archetype_assume_align),
    ("loop", archetype_loop),
    ("multi", archetype_multi_function),
    ("sat", archetype_saturating),
    ("abs", archetype_abs),
    ("freeze", archetype_freeze),
    ("boollshr", archetype_bool_lshr),
    ("constsel", archetype_constant_select),
    ("alloca", archetype_alloca),
    ("printf", archetype_printf),
    ("minclamp", archetype_minmax_clamp),
    ("maskshift", archetype_mask_shift),
    ("dshift", archetype_double_shift),
    ("mrot", archetype_masked_rotate),
    ("bfi", archetype_bitfield_insert),
    ("gvndup", archetype_gvn_duplicates),
    ("div", archetype_division),
    ("funnel", archetype_funnel_shift),
    ("pun", archetype_punned_alloca),
    ("abs2", archetype_abs_twice),
    ("oddwidth", archetype_odd_width),
    ("linv", archetype_loop_invariant),
    ("ds", archetype_dead_stores),
)


def generate_corpus(count: int, seed: int = 0) -> List[Tuple[str, str]]:
    """``count`` (filename, .ll text) pairs, deterministic in ``seed``.

    Archetypes are cycled so every corpus slice is diverse, mirroring the
    paper's "randomly selected 200 files" methodology.
    """
    rng = random.Random(seed)
    files: List[Tuple[str, str]] = []
    for index in range(count):
        name, generator = ARCHETYPES[index % len(ARCHETYPES)]
        text = generator(rng, index).lstrip("\n")
        files.append((f"{name}_{index}.ll", text))
    return files


def generate_large_corpus(count: int, seed: int = 0,
                          min_bytes: int = 2048) -> List[Tuple[str, str]]:
    """Files larger than ``min_bytes``, per the paper's appendix G:
    "we randomly selected 200 IR files with file size less than 2KB and
    200 files with size larger than 2KB".

    Each large file concatenates several archetype functions (renamed to
    stay unique) until it crosses the size threshold.
    """
    import re

    name_of = re.compile(r"declare\s+\S+\s+@([\w.]+)")
    rng = random.Random(seed ^ 0xB16)
    files: List[Tuple[str, str]] = []
    piece_counter = 0
    for index in range(count):
        parts: List[str] = []
        declared: dict = {}
        size = 0
        while size < min_bytes:
            _, generator = ARCHETYPES[rng.randrange(len(ARCHETYPES))]
            piece_counter += 1
            text = generator(rng, 100000 + piece_counter).lstrip("\n")
            # Keep one copy of each declaration; a piece re-declaring a
            # name with a *different* signature is discarded wholesale.
            body_lines = []
            conflict = False
            for line in text.splitlines():
                if line.startswith("declare"):
                    match = name_of.match(line)
                    declared_name = match.group(1) if match else line
                    existing = declared.get(declared_name)
                    if existing == line:
                        continue
                    if existing is not None:
                        conflict = True
                        break
                    declared[declared_name] = line
                body_lines.append(line)
            if conflict:
                continue
            piece = "\n".join(body_lines).strip() + "\n"
            parts.append(piece)
            size += len(piece.encode())
        files.append((f"large_{index}.ll", "\n".join(parts)))
    return files


def corpus_modules(count: int, seed: int = 0):
    """Parsed corpus: (filename, Module) pairs."""
    from ..ir import parse_module

    return [(name, parse_module(text, name))
            for name, text in generate_corpus(count, seed)]

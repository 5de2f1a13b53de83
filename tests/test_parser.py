"""Tests for the .ll lexer and parser."""

import hashlib
import importlib.util
import os

import pytest

from repro.ir import (BinaryOperator, CallInst, GEPInst, ICmpInst, IntType,
                      LoadInst, ParseError, PhiNode, parse_function,
                      parse_module, SelectInst, StoreInst, SwitchInst)
from repro.fuzz.seeds import generate_corpus
from repro.ir.parser.lexer import LexError, TokenStream, tokenize
from repro.ir.printer import print_module

from helpers import parsed, round_trips, single_function


class TestLexer:
    def test_basic_tokens(self):
        tokens = tokenize("define i32 @f(%x) { }")
        kinds = [t.kind for t in tokens]
        assert kinds == ["word", "word", "global", "punct", "local", "punct",
                         "punct", "punct", "eof"]

    def test_comments_dropped(self):
        tokens = tokenize("add ; this is a comment\nsub")
        assert [t.text for t in tokens[:-1]] == ["add", "sub"]

    def test_negative_numbers(self):
        tokens = tokenize("-16 16")
        assert tokens[0].kind == "int" and tokens[0].text == "-16"
        assert tokens[1].kind == "int" and tokens[1].text == "16"

    def test_strings(self):
        tokens = tokenize('"align"')
        assert tokens[0].kind == "string" and tokens[0].text == "align"

    def test_quoted_local_name(self):
        tokens = tokenize('%"weird name"')
        assert tokens[0].kind == "local"
        assert tokens[0].text == "weird name"

    def test_attr_group_token(self):
        tokens = tokenize("#0")
        assert tokens[0].kind == "attr_group" and tokens[0].text == "0"

    def test_metadata_token(self):
        assert tokenize("!dbg")[0].kind == "metadata"

    def test_line_numbers(self):
        tokens = tokenize("a\nb")
        assert tokens[0].line == 1 and tokens[1].line == 2

    def test_unterminated_string(self):
        with pytest.raises(LexError):
            tokenize('"oops')

    # Each malformed input with its exact message and position.
    LEX_ERRORS = [
        ('%"abc', "unterminated quoted name at line 1:1"),
        ("%", "empty name after '%' at line 1:1"),
        ("% x", "empty name after '%' at line 1:1"),
        ('@"', "unterminated quoted name at line 1:1"),
        ('!""', "empty name after '!' at line 1:1"),
        ('"oops', "unterminated string at line 1:1"),
        ("a\n  -x", "unexpected character '-' at line 2:3"),
        ("a $b ^", "unexpected character '^' at line 1:6"),
        ("x\t\r&", "unexpected character '&' at line 1:4"),
        # A quoted name spanning lines does not move the line counter.
        ('%"a\nb" c\n "d', "unterminated string at line 2:2"),
    ]

    @pytest.mark.parametrize("source, message", LEX_ERRORS)
    def test_lex_error_messages_and_positions(self, source, message):
        with pytest.raises(LexError) as info:
            tokenize(source)
        assert str(info.value) == message

    def test_ellipsis_is_punctuation(self):
        # Varargs' ``...`` is one token; other dots stay inside words.
        assert [(t.kind, t.text) for t in tokenize("... a.b (i8, ...)")] == [
            ("punct", "..."), ("word", "a.b"), ("punct", "("), ("word", "i8"),
            ("punct", ","), ("punct", "..."), ("punct", ")"), ("eof", "")]

    def test_sigil_names_take_dashes_and_digits(self):
        tokens = tokenize("%a-1.b$ @0 #12 !dbg 1-2 -3x")
        assert [(t.kind, t.text, t.column) for t in tokens] == [
            ("local", "a-1.b$", 1), ("global", "0", 9),
            ("attr_group", "12", 12), ("metadata", "dbg", 16),
            ("int", "1", 21), ("int", "-2", 22), ("int", "-3", 25),
            ("word", "x", 27), ("eof", "", 28)]


class TestNonAsciiDigits:
    """Digits are ASCII ``[0-9]`` only, as in LLVM: ``str.isdigit``
    would also take superscripts and other scripts' digits."""

    @pytest.mark.parametrize("source, column", [
        ("define i8 @f(i8 %x) {\n  %r = add i8 %x, \u00b2\n  ret i8 %r\n}", 19),
        ("define i8 @f(i8 %x) {\n  %r = add i8 %x, \u0663\n  ret i8 %r\n}", 19),
        ("define i\u0663 @f(i8 %x) {\n  ret i8 %x\n}", 9),
    ], ids=["superscript-literal", "arabic-indic-literal", "arabic-indic-width"])
    def test_non_ascii_digit_is_a_parse_error(self, source, column):
        with pytest.raises(ParseError, match=f"unexpected character .* at line "
                           f"\\d+:{column}"):
            parse_module(source)

    def test_ascii_widths_still_parse(self):
        fn = single_function("define i7 @f(i007 %x) {\n  ret i7 %x\n}")
        assert fn.return_type is IntType(7)


def _token_stream_digest(texts):
    digest = hashlib.sha256()
    for text in texts:
        for token in tokenize(text):
            digest.update(repr((token.kind, token.text, token.line,
                                token.column)).encode())
            digest.update(b"\n")
    return digest.hexdigest()


def _block_corpus():
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)),
                        "benchmarks", "ledger", "blocks.py")
    spec = importlib.util.spec_from_file_location("ledger_blocks", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.block_corpus


class TestTokenStreamPin:
    # (kind, text, line, column) of every token of the seed corpus and
    # the optimize_blocks inputs, as the per-character lexer produced
    # them: the scanner must reproduce it exactly.
    DIGEST = "9306bad6f39efcd768136593ac43cd632e5e58a5e40be2792dd398e862c007e9"

    def test_corpus_token_stream_is_unchanged(self):
        texts = [text for _, text in generate_corpus(48, 0)]
        block_corpus = _block_corpus()
        for seed in range(4):
            texts += [text for _, text in block_corpus(16, seed)]
        assert _token_stream_digest(texts) == self.DIGEST


class TestTokenStream:
    def test_peek_past_the_end_stays_on_eof(self):
        stream = TokenStream(tokenize("ret"))
        assert stream.next().text == "ret"
        assert stream.at_eof() and stream.peek(1).kind == "eof"
        assert stream.next().kind == "eof" and stream.at_eof()
        assert stream.accept("word") is None and not stream.at("word", None, 1)

    def test_expect_reports_what_it_found(self):
        stream = TokenStream(tokenize("define"))
        with pytest.raises(SyntaxError, match="expected 'declare', found "
                           "'define' at line 1:1"):
            stream.expect("word", "declare")


class TestParseBasics:
    def test_simple_function(self):
        fn = single_function("""
define i32 @f(i32 %x) {
  %r = add i32 %x, 1
  ret i32 %r
}
""")
        assert fn.name == "f"
        assert fn.num_args() == 1
        assert isinstance(fn.blocks[0].instructions[0], BinaryOperator)

    def test_declaration(self):
        module = parsed("declare void @ext(ptr, i32)")
        ext = module.get_function("ext")
        assert ext.is_declaration()
        assert ext.function_type.param_types[1] is IntType(32)

    def test_typed_pointer_normalized(self):
        fn = single_function("""
define i32 @f(i32* %p) {
  %v = load i32, i32* %p
  ret i32 %v
}
""")
        assert fn.arguments[0].type.IS_POINTER

    def test_flags(self):
        fn = single_function("""
define i8 @f(i8 %x) {
  %a = add nuw nsw i8 %x, 1
  %b = lshr exact i8 %a, 1
  ret i8 %b
}
""")
        add, lshr = fn.blocks[0].instructions[:2]
        assert add.nuw and add.nsw
        assert lshr.exact

    def test_icmp_and_select(self):
        fn = single_function("""
define i32 @f(i32 %x) {
  %c = icmp sle i32 %x, -5
  %r = select i1 %c, i32 %x, i32 7
  ret i32 %r
}
""")
        cmp, sel = fn.blocks[0].instructions[:2]
        assert isinstance(cmp, ICmpInst) and cmp.predicate == "sle"
        assert isinstance(sel, SelectInst)
        assert cmp.rhs.signed_value() == -5

    def test_boolean_literals(self):
        fn = single_function("""
define i1 @f() {
  %r = select i1 true, i1 false, i1 true
  ret i1 %r
}
""")
        sel = fn.blocks[0].instructions[0]
        assert sel.condition.value == 1

    def test_undef_poison_null(self):
        fn = single_function("""
define i32 @f(ptr %p) {
  %c = icmp eq ptr %p, null
  %r = select i1 %c, i32 undef, i32 poison
  ret i32 %r
}
""")
        sel = fn.blocks[0].instructions[1]
        from repro.ir import PoisonValue, UndefValue

        assert isinstance(sel.true_value, UndefValue)
        assert isinstance(sel.false_value, PoisonValue)

    def test_casts(self):
        fn = single_function("""
define i64 @f(i8 %x) {
  %a = zext i8 %x to i32
  %b = sext i32 %a to i64
  %c = trunc i64 %b to i16
  %d = zext i16 %c to i64
  ret i64 %d
}
""")
        kinds = [i.opcode for i in fn.blocks[0].instructions[:4]]
        assert kinds == ["zext", "sext", "trunc", "zext"]

    def test_memory_ops(self):
        fn = single_function("""
define void @f(ptr %p) {
  %a = alloca i32, align 8
  %v = load i32, ptr %p, align 4
  store i32 %v, ptr %a, align 2
  ret void
}
""")
        alloca, load, store = fn.blocks[0].instructions[:3]
        assert alloca.align == 8
        assert isinstance(load, LoadInst) and load.align == 4
        assert isinstance(store, StoreInst) and store.align == 2

    def test_gep(self):
        fn = single_function("""
define ptr @f(ptr %p, i64 %i) {
  %g = getelementptr inbounds i32, ptr %p, i64 %i
  ret ptr %g
}
""")
        gep = fn.blocks[0].instructions[0]
        assert isinstance(gep, GEPInst) and gep.inbounds

    def test_freeze(self):
        fn = single_function("""
define i32 @f(i32 %x) {
  %f = freeze i32 %x
  ret i32 %f
}
""")
        assert fn.blocks[0].instructions[0].opcode == "freeze"


class TestParseControlFlow:
    def test_branches_and_labels(self):
        fn = single_function("""
define i32 @f(i1 %c) {
entry:
  br i1 %c, label %yes, label %no
yes:
  ret i32 1
no:
  ret i32 0
}
""")
        assert [b.name for b in fn.blocks] == ["entry", "yes", "no"]

    def test_implicit_entry_label(self):
        fn = single_function("""
define i32 @f(i1 %c) {
  br i1 %c, label %a, label %b
a:
  ret i32 1
b:
  ret i32 2
}
""")
        assert len(fn.blocks) == 3

    def test_forward_value_reference_in_phi(self):
        fn = single_function("""
define i32 @f(i32 %n) {
entry:
  br label %loop
loop:
  %i = phi i32 [ 0, %entry ], [ %inc, %loop ]
  %inc = add i32 %i, 1
  %c = icmp ult i32 %inc, %n
  br i1 %c, label %loop, label %out
out:
  ret i32 %i
}
""")
        phi = fn.block_named("loop").instructions[0]
        assert isinstance(phi, PhiNode)
        inc = fn.block_named("loop").instructions[1]
        assert phi.incoming()[1][0] is inc

    def test_switch(self):
        fn = single_function("""
define i8 @f(i8 %x) {
entry:
  switch i8 %x, label %d [ i8 0, label %a i8 1, label %b ]
a:
  ret i8 10
b:
  ret i8 20
d:
  ret i8 30
}
""")
        sw = fn.block_named("entry").terminator()
        assert isinstance(sw, SwitchInst)
        assert len(sw.cases()) == 2


class TestParseCallsAndAttributes:
    def test_call_with_bundle(self):
        module = parsed("""
declare void @llvm.assume(i1)

define void @f(ptr %p) {
  call void @llvm.assume(i1 true) [ "align"(ptr %p, i64 16) ]
  ret void
}
""")
        fn = module.get_function("f")
        call = fn.blocks[0].instructions[0]
        assert isinstance(call, CallInst)
        assert call.bundles[0].tag == "align"
        assert len(call.bundle_operands(call.bundles[0])) == 2

    def test_implicit_declaration(self):
        module = parsed("""
define void @f(ptr %p) {
  call void @unknown(ptr %p)
  ret void
}
""")
        assert module.get_function("unknown") is not None

    def test_param_attributes(self):
        fn = single_function("""
define i32 @f(ptr nocapture dereferenceable(8) %p, i32 noundef %x) {
  ret i32 %x
}
""")
        assert fn.arguments[0].attributes.has("nocapture")
        assert fn.arguments[0].attributes.get_int("dereferenceable") == 8
        assert fn.arguments[1].attributes.has("noundef")

    def test_function_attributes_inline(self):
        fn = single_function("""
define i32 @f(i32 %x) nofree willreturn {
  ret i32 %x
}
""")
        assert fn.attributes.has("nofree")
        assert fn.attributes.has("willreturn")

    def test_attribute_group(self):
        module = parsed("""
define void @f() #0 {
  ret void
}

attributes #0 = { nounwind nofree }
""")
        assert module.get_function("f").attributes.has("nounwind")

    def test_declare_with_attrs(self):
        module = parsed("declare i32 @pure(i32) readnone willreturn")
        assert module.get_function("pure").attributes.has("readnone")


class TestParseErrors:
    @pytest.mark.parametrize("text", [
        "define i32 @f( {",                          # malformed params
        "define i32 @f() { ret i32 %nope\n}",        # undefined value
        "define i32 @f() { %x = add i32 1, 2\n%x = add i32 1, 2\nret i32 %x\n}",
        "define void @f() { br label %gone\n}",      # undefined label
        "frobnicate",                                # junk at top level
        "define i32 @f(i32 %x) { ret i32 %x\n}\ndefine i32 @f() { ret i32 0\n}",
    ])
    def test_rejects(self, text):
        with pytest.raises(ParseError):
            parse_module(text)

    def test_type_conflict(self):
        with pytest.raises(ParseError):
            parse_module("""
define i32 @f(i32 %x) {
  %a = add i32 %x, 1
  %b = add i64 %a, 1
  ret i32 %a
}
""")

    def test_parse_function_requires_one_definition(self):
        with pytest.raises(ParseError):
            parse_function("declare void @f()")


class TestRoundTrips:
    SNIPPETS = [
        """
define i32 @t1(i32 %x, i32 %low, i32 %high) {
  %t0 = icmp slt i32 %x, -16
  %t1 = select i1 %t0, i32 %low, i32 %high
  %t2 = add i32 %x, 16
  %t3 = icmp ult i32 %t2, 144
  %r = select i1 %t3, i32 %x, i32 %t1
  ret i32 %r
}
""",
        """
declare void @clobber(ptr)

define i32 @test9(ptr %p, ptr %q) {
  %a = load i32, ptr %q, align 4
  call void @clobber(ptr %p)
  %b = load i32, ptr %q, align 4
  %c = sub i32 %a, %b
  ret i32 %c
}
""",
        """
define i64 @lsr_zext(i1 %b) {
  %1 = zext i1 %b to i64
  %2 = lshr i64 %1, 1
  ret i64 %2
}
""",
        """
define i26 @odd(i26 %a) {
  %r = mul nsw i26 %a, %a
  ret i26 %r
}
""",
    ]

    @pytest.mark.parametrize("index", range(len(SNIPPETS)))
    def test_round_trip(self, index):
        assert round_trips(parsed(self.SNIPPETS[index]))

    def test_vararg_signatures_round_trip(self):
        text = ("declare i32 @g(i32, ...)\n\n"
                "declare void @h(...)\n\n"
                "define i32 @f(i32 %x, ...) {\n"
                "  %r = call i32 @g(i32 %x, i32 1)\n"
                "  ret i32 %r\n}\n")
        module = parse_module(text)
        assert module.get_function("g").function_type.is_vararg
        assert module.get_function("h").function_type.param_types == ()
        assert module.get_function("f").function_type.is_vararg
        assert print_module(module) == text
        assert round_trips(module)

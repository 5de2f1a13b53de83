"""Recursive-descent parser for the ``.ll``-style textual IR.

Supports the subset of LLVM assembly the paper's artifacts use: function
definitions and declarations, integer/pointer types (typed pointers like
``i32*`` are normalized to opaque ``ptr``), all instruction forms in
:mod:`repro.ir.instructions`, parameter/function attributes (inline and via
``attributes #N`` groups), ``align`` annotations, operand bundles on calls,
and forward references to labels and values.  Metadata tokens are skipped.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from ..attributes import (Attribute, AttributeSet, FUNCTION_ATTRIBUTES,
                          PARAM_FLAG_ATTRIBUTES, PARAM_INT_ATTRIBUTES)
from ..basicblock import BasicBlock
from ..function import Function
from ..instructions import (AllocaInst, BINARY_OPCODES, BinaryOperator,
                            BrInst, CAST_OPCODES, CallInst, CastInst,
                            FreezeInst, GEPInst, ICMP_PREDICATES, ICmpInst,
                            LoadInst, OperandBundle, PhiNode, RetInst,
                            SelectInst, StoreInst, SwitchInst,
                            UnreachableInst)
from ..module import Module
from ..types import (FunctionType, IntType, LabelType, PtrType, Type,
                     VoidType)
from ..values import (ConstantInt, ConstantPointerNull, PoisonValue,
                      UndefValue, Value)
from .lexer import (ATTR_GROUP, EOF, GLOBAL, INT, LOCAL, METADATA, PUNCT,
                    STRING, TokenStream, WORD, tokenize)


# Common type names, answered without parsing a width.
_NAMED_TYPES: Dict[str, Type] = {
    "void": VoidType(),
    "ptr": PtrType(),
    "label": LabelType(),
    **{f"i{width}": IntType(width) for width in (1, 8, 16, 32, 64)},
}


class ParseError(Exception):
    """Raised when the input is not valid IR text."""


class _Forward(Value):
    """Placeholder for a value referenced before its definition."""

    __slots__ = ()

    KIND = "forward"


def parse_module(source: str, name: str = "module") -> Module:
    """Parse a whole module from text."""
    try:
        tokens = TokenStream(tokenize(source))
    except Exception as exc:
        raise ParseError(str(exc)) from exc
    parser = _Parser(tokens, name)
    try:
        return parser.parse_module()
    except SyntaxError as exc:
        raise ParseError(str(exc)) from exc


def parse_function(source: str) -> Function:
    """Parse a single function (helper for tests and examples)."""
    module = parse_module(source)
    definitions = module.definitions()
    if len(definitions) != 1:
        raise ParseError(f"expected exactly one definition, got {len(definitions)}")
    return definitions[0]


class _Parser:
    def __init__(self, tokens: TokenStream, module_name: str) -> None:
        self.tokens = tokens
        self.module = Module(module_name)
        # Attribute groups may be declared after use: #N -> AttributeSet.
        self._attr_groups: Dict[str, AttributeSet] = {}
        self._pending_group_refs: List[Tuple[Function, str]] = []

    # -- top level ----------------------------------------------------------

    def parse_module(self) -> Module:
        while not self.tokens.at_eof():
            if self.tokens.at(WORD, "define"):
                self.parse_define()
            elif self.tokens.at(WORD, "declare"):
                self.parse_declare()
            elif self.tokens.at(WORD, "attributes"):
                self.parse_attribute_group()
            elif self.tokens.at(WORD, "source_filename") or self.tokens.at(WORD, "target"):
                self._skip_line_like()
            else:
                token = self.tokens.peek()
                raise SyntaxError(
                    f"unexpected top-level token {token.text!r} "
                    f"at line {token.line}:{token.column}")
        for function, group in self._pending_group_refs:
            attrs = self._attr_groups.get(group)
            if attrs is None:
                raise SyntaxError(f"undefined attribute group #{group}")
            for attr in attrs:
                function.attributes.add(attr)
        return self.module

    def _skip_line_like(self) -> None:
        # source_filename = "..." / target datalayout = "..."
        line = self.tokens.peek().line
        while not self.tokens.at_eof() and self.tokens.peek().line == line:
            self.tokens.next()

    def parse_attribute_group(self) -> None:
        self.tokens.expect(WORD, "attributes")
        group = self.tokens.expect(ATTR_GROUP).text
        self.tokens.expect(PUNCT, "=")
        self.tokens.expect(PUNCT, "{")
        attrs = AttributeSet()
        while not self.tokens.at(PUNCT, "}"):
            attrs.add(self._parse_one_attribute())
        self.tokens.expect(PUNCT, "}")
        self._attr_groups[group] = attrs

    def _parse_one_attribute(self) -> Attribute:
        word = self.tokens.expect(WORD).text
        if self.tokens.accept(PUNCT, "("):
            value = int(self.tokens.expect(INT).text)
            self.tokens.expect(PUNCT, ")")
            return Attribute(word, value)
        if word == "align" and self.tokens.at(INT):
            return Attribute("align", int(self.tokens.next().text))
        return Attribute(word)

    # -- declarations & definitions ------------------------------------------

    def parse_declare(self) -> None:
        self.tokens.expect(WORD, "declare")
        return_type = self.parse_type()
        name = self.tokens.expect(GLOBAL).text
        param_types, param_attr_sets, _, vararg = self._parse_param_list(named=False)
        function_type = FunctionType(return_type, tuple(param_types), vararg)
        function = self.module.get_or_insert_function(name, function_type)
        for arg, attrs in zip(function.arguments, param_attr_sets):
            arg.attributes = attrs
        self._parse_function_attrs(function)

    def parse_define(self) -> None:
        self.tokens.expect(WORD, "define")
        return_type = self.parse_type()
        name = self.tokens.expect(GLOBAL).text
        param_types, param_attr_sets, param_names, vararg = self._parse_param_list(
            named=True
        )
        function_type = FunctionType(return_type, tuple(param_types), vararg)
        if name in self.module:
            raise SyntaxError(f"redefinition of @{name}")
        function = Function(function_type, name, self.module,
                            arg_names=param_names)
        for arg, attrs in zip(function.arguments, param_attr_sets):
            arg.attributes = attrs
        self._parse_function_attrs(function)
        self.tokens.expect(PUNCT, "{")
        _BodyParser(self, function).parse_body()
        self.tokens.expect(PUNCT, "}")

    def _parse_param_list(self, named: bool):
        self.tokens.expect(PUNCT, "(")
        types: List[Type] = []
        attr_sets: List[AttributeSet] = []
        names: List[str] = []
        first = True
        vararg = False
        while not self.tokens.at(PUNCT, ")"):
            if not first:
                self.tokens.expect(PUNCT, ",")
            first = False
            if self.tokens.accept(PUNCT, "..."):
                vararg = True
                break
            param_type = self.parse_type()
            attrs = self._parse_param_attrs(param_type)
            param_name = ""
            local = self.tokens.accept(LOCAL)
            if local is not None:
                param_name = local.text
            types.append(param_type)
            attr_sets.append(attrs)
            names.append(param_name)
        self.tokens.expect(PUNCT, ")")
        return types, attr_sets, names, vararg

    def _parse_param_attrs(self, param_type: Type) -> AttributeSet:
        attrs = AttributeSet()
        while self.tokens.at(WORD):
            word = self.tokens.peek().text
            if word in PARAM_INT_ATTRIBUTES:
                self.tokens.next()
                if word == "align":
                    attrs.add(Attribute("align", int(self.tokens.expect(INT).text)))
                else:
                    self.tokens.expect(PUNCT, "(")
                    value = int(self.tokens.expect(INT).text)
                    self.tokens.expect(PUNCT, ")")
                    attrs.add(Attribute(word, value))
            elif word in PARAM_FLAG_ATTRIBUTES:
                self.tokens.next()
                attrs.add(Attribute(word))
            else:
                break
        return attrs

    def _parse_function_attrs(self, function: Function) -> None:
        while True:
            if self.tokens.at(ATTR_GROUP):
                group = self.tokens.next().text
                self._pending_group_refs.append((function, group))
            elif self.tokens.at(WORD) and self.tokens.peek().text in FUNCTION_ATTRIBUTES:
                function.attributes.add(Attribute(self.tokens.next().text))
            else:
                break

    # -- types ------------------------------------------------------------------

    def parse_type(self) -> Type:
        token = self.tokens.expect(WORD)
        text = token.text
        if text in _NAMED_TYPES:
            base = _NAMED_TYPES[text]
        else:
            if not (text.startswith("i") and text[1:].isdigit()):
                raise SyntaxError(
                    f"unknown type {text!r} at line {token.line}:{token.column}")
            try:
                base = IntType(int(text[1:]))
            except ValueError as exc:
                raise SyntaxError(
                    f"invalid integer type {text!r} at line "
                    f"{token.line}:{token.column}") from exc
        # Typed pointers (i32*, i8**) normalize to opaque ptr.
        while self.tokens.accept(PUNCT, "*"):
            base = PtrType()
        return base


class _BodyParser:
    """Parses the body of one function definition."""

    def __init__(self, parent: _Parser, function: Function) -> None:
        self.parent = parent
        self.tokens = parent.tokens
        self.module = parent.module
        self.function = function
        self.values: Dict[str, Value] = {}
        self.blocks: Dict[str, BasicBlock] = {}
        self.forwards: Dict[str, _Forward] = {}
        for arg in function.arguments:
            if arg.name:
                self.values[arg.name] = arg

    # -- name resolution ------------------------------------------------------

    def define_value(self, name: str, value: Value) -> None:
        if name in self.values:
            raise SyntaxError(f"redefinition of %{name}")
        forward = self.forwards.pop(name, None)
        if forward is not None:
            if forward.type is not value.type:
                raise SyntaxError(
                    f"%{name} used with type {forward.type} but defined "
                    f"with type {value.type}")
            forward.replace_all_uses_with(value)
        self.values[name] = value

    def lookup_value(self, name: str, type: Type) -> Value:
        existing = self.values.get(name)
        if existing is not None:
            if existing.type is not type:
                raise SyntaxError(
                    f"%{name} has type {existing.type}, used as {type}")
            return existing
        forward = self.forwards.get(name)
        if forward is None:
            forward = _Forward(type, name)
            self.forwards[name] = forward
        elif forward.type is not type:
            raise SyntaxError(
                f"%{name} used with conflicting types "
                f"{forward.type} and {type}")
        return forward

    def get_block(self, name: str) -> BasicBlock:
        block = self.blocks.get(name)
        if block is None:
            block = BasicBlock(name)
            self.blocks[name] = block
        return block

    # -- body --------------------------------------------------------------------

    def parse_body(self) -> None:
        current: Optional[BasicBlock] = None
        while True:
            token = self.tokens.peek()
            kind = token.kind
            if kind == PUNCT and token.text == "}":
                break
            if kind == EOF:
                raise SyntaxError("unexpected end of input inside function body")
            # A label: WORD/INT followed by ':'.
            if (kind == WORD or kind == INT) and self.tokens.at(PUNCT, ":", 1):
                label = self.tokens.next().text
                self.tokens.expect(PUNCT, ":")
                block = self.get_block(label)
                if block.parent is not None:
                    raise SyntaxError(f"duplicate label {label}")
                self.function.append_block(block)
                current = block
                continue
            if current is None:
                current = self.get_block("entry")
                self.function.append_block(current)
            self.parse_instruction(current)
        if self.forwards:
            missing = ", ".join(f"%{n}" for n in sorted(self.forwards))
            raise SyntaxError(f"use of undefined value(s): {missing}")
        for name, block in self.blocks.items():
            if block.parent is None:
                raise SyntaxError(f"use of undefined label %{name}")

    # -- operands ------------------------------------------------------------------

    def parse_value(self, type: Type) -> Value:
        # Every path that does not consume the token raises.
        token = self.tokens.next()
        if token.kind == LOCAL:
            return self.lookup_value(token.text, type)
        if token.kind == INT:
            if not type.IS_INTEGER:
                raise SyntaxError(f"integer literal used as {type}")
            return ConstantInt(type, int(token.text))
        if token.kind == GLOBAL:
            function = self.module.get_function(token.text)
            if function is None:
                raise SyntaxError(f"use of undefined global @{token.text}")
            return function
        if token.kind == WORD:
            if token.text == "true":
                return ConstantInt(IntType(1), 1)
            if token.text == "false":
                return ConstantInt(IntType(1), 0)
            if token.text == "undef":
                return UndefValue(type)
            if token.text == "poison":
                return PoisonValue(type)
            if token.text == "null":
                if not type.IS_POINTER:
                    raise SyntaxError("null literal used at non-pointer type")
                return ConstantPointerNull()
        raise SyntaxError(
            f"expected value, found {token.text!r} "
            f"at line {token.line}:{token.column}")

    def parse_typed_value(self) -> Value:
        type = self.parent.parse_type()
        if type.IS_LABEL:
            label = self.tokens.expect(LOCAL).text
            return self.get_block(label)
        return self.parse_value(type)

    def parse_label_operand(self) -> BasicBlock:
        self.tokens.expect(WORD, "label")
        return self.get_block(self.tokens.expect(LOCAL).text)

    def _skip_metadata(self) -> None:
        """Skip trailing ``, !dbg !7``-style metadata."""
        while self.tokens.at(PUNCT, ",") and self.tokens.at(METADATA, None, 1):
            self.tokens.next()
            self.tokens.next()
            if self.tokens.at(METADATA):
                self.tokens.next()

    def _parse_align_suffix(self) -> int:
        align = 0
        if self.tokens.at(PUNCT, ",") and self.tokens.at(WORD, "align", 1):
            self.tokens.next()
            self.tokens.next()
            align = int(self.tokens.expect(INT).text)
        return align

    # -- instructions ----------------------------------------------------------------

    def parse_instruction(self, block: BasicBlock) -> None:
        result_name = ""
        local = self.tokens.accept(LOCAL)
        if local is not None:
            result_name = local.text
            self.tokens.expect(PUNCT, "=")
        opcode_token = self.tokens.expect(WORD)
        opcode = opcode_token.text
        inst = self._dispatch(opcode, result_name)
        self._skip_metadata()
        inst.name = result_name if not inst.type.IS_VOID else ""
        block.append(inst)
        if result_name:
            if inst.type.IS_VOID:
                raise SyntaxError(f"%{result_name} assigned from void instruction")
            self.define_value(result_name, inst)

    def _dispatch(self, opcode: str, result_name: str):
        if opcode in BINARY_OPCODES:
            return self._parse_binop(opcode)
        if opcode == "icmp":
            return self._parse_icmp()
        if opcode == "select":
            return self._parse_select()
        if opcode in CAST_OPCODES:
            return self._parse_cast(opcode)
        if opcode == "freeze":
            return FreezeInst(self.parse_typed_value())
        if opcode == "alloca":
            allocated = self.parent.parse_type()
            align = self._parse_align_suffix()
            return AllocaInst(allocated, align=align)
        if opcode == "load":
            return self._parse_load()
        if opcode == "store":
            return self._parse_store()
        if opcode == "getelementptr":
            return self._parse_gep()
        if opcode == "call":
            return self._parse_call()
        if opcode == "ret":
            return self._parse_ret()
        if opcode == "br":
            return self._parse_br()
        if opcode == "switch":
            return self._parse_switch()
        if opcode == "unreachable":
            return UnreachableInst()
        if opcode == "phi":
            return self._parse_phi()
        raise SyntaxError(f"unknown instruction opcode {opcode!r}")

    def _parse_binop(self, opcode: str) -> BinaryOperator:
        nuw = nsw = exact = False
        while self.tokens.at(WORD) and self.tokens.peek().text in ("nuw", "nsw", "exact"):
            flag = self.tokens.next().text
            nuw = nuw or flag == "nuw"
            nsw = nsw or flag == "nsw"
            exact = exact or flag == "exact"
        type = self.parent.parse_type()
        lhs = self.parse_value(type)
        self.tokens.expect(PUNCT, ",")
        rhs = self.parse_value(type)
        return BinaryOperator(opcode, lhs, rhs, nuw=nuw, nsw=nsw, exact=exact)

    def _parse_icmp(self) -> ICmpInst:
        predicate = self.tokens.expect(WORD).text
        if predicate not in ICMP_PREDICATES:
            raise SyntaxError(f"unknown icmp predicate {predicate!r}")
        type = self.parent.parse_type()
        lhs = self.parse_value(type)
        self.tokens.expect(PUNCT, ",")
        rhs = self.parse_value(type)
        return ICmpInst(predicate, lhs, rhs)

    def _parse_select(self) -> SelectInst:
        condition = self.parse_typed_value()
        self.tokens.expect(PUNCT, ",")
        true_value = self.parse_typed_value()
        self.tokens.expect(PUNCT, ",")
        false_value = self.parse_typed_value()
        if true_value.type is not false_value.type:
            raise SyntaxError("select arms have mismatched types")
        return SelectInst(condition, true_value, false_value)

    def _parse_cast(self, opcode: str) -> CastInst:
        value = self.parse_typed_value()
        self.tokens.expect(WORD, "to")
        dest = self.parent.parse_type()
        return CastInst(opcode, value, dest)

    def _parse_load(self) -> LoadInst:
        loaded_type = self.parent.parse_type()
        self.tokens.expect(PUNCT, ",")
        pointer = self.parse_typed_value()
        if not pointer.type.IS_POINTER:
            raise SyntaxError("load pointer operand is not a pointer")
        align = self._parse_align_suffix()
        return LoadInst(loaded_type, pointer, align=align)

    def _parse_store(self) -> StoreInst:
        value = self.parse_typed_value()
        self.tokens.expect(PUNCT, ",")
        pointer = self.parse_typed_value()
        if not pointer.type.IS_POINTER:
            raise SyntaxError("store pointer operand is not a pointer")
        align = self._parse_align_suffix()
        return StoreInst(value, pointer, align=align)

    def _parse_gep(self) -> GEPInst:
        inbounds = self.tokens.accept(WORD, "inbounds") is not None
        source_type = self.parent.parse_type()
        self.tokens.expect(PUNCT, ",")
        pointer = self.parse_typed_value()
        indices = []
        while self.tokens.accept(PUNCT, ","):
            if self.tokens.at(METADATA) or (self.tokens.at(WORD, "align")):
                raise SyntaxError("unexpected annotation in getelementptr")
            indices.append(self.parse_typed_value())
        if not indices:
            raise SyntaxError("getelementptr requires at least one index")
        return GEPInst(source_type, pointer, indices, inbounds=inbounds)

    def _parse_call(self) -> CallInst:
        return_type = self.parent.parse_type()
        callee_name = self.tokens.expect(GLOBAL).text
        args: List[Value] = []
        self.tokens.expect(PUNCT, "(")
        first = True
        while not self.tokens.at(PUNCT, ")"):
            if not first:
                self.tokens.expect(PUNCT, ",")
            first = False
            param_type = self.parent.parse_type()
            self.parent._parse_param_attrs(param_type)  # tolerated, dropped
            args.append(self.parse_value(param_type))
        self.tokens.expect(PUNCT, ")")
        callee = self.module.get_function(callee_name)
        if callee is None:
            # Implicitly declare, inferring the signature from the call site.
            function_type = FunctionType(return_type, tuple(a.type for a in args))
            callee = Function(function_type, callee_name, self.module)
        if callee.return_type is not return_type:
            raise SyntaxError(
                f"call return type {return_type} does not match "
                f"@{callee_name} which returns {callee.return_type}")
        bundles: List[OperandBundle] = []
        if self.tokens.accept(PUNCT, "["):
            while not self.tokens.at(PUNCT, "]"):
                if bundles:
                    self.tokens.expect(PUNCT, ",")
                tag = self.tokens.expect(STRING).text
                self.tokens.expect(PUNCT, "(")
                inputs = []
                inner_first = True
                while not self.tokens.at(PUNCT, ")"):
                    if not inner_first:
                        self.tokens.expect(PUNCT, ",")
                    inner_first = False
                    inputs.append(self.parse_typed_value())
                self.tokens.expect(PUNCT, ")")
                bundles.append(OperandBundle(tag, inputs))
            self.tokens.expect(PUNCT, "]")
        return CallInst(callee, args, bundles=bundles)

    def _parse_ret(self) -> RetInst:
        if self.tokens.accept(WORD, "void"):
            return RetInst()
        return RetInst(self.parse_typed_value())

    def _parse_br(self) -> BrInst:
        if self.tokens.at(WORD, "label"):
            return BrInst(self.parse_label_operand())
        condition = self.parse_typed_value()
        self.tokens.expect(PUNCT, ",")
        true_block = self.parse_label_operand()
        self.tokens.expect(PUNCT, ",")
        false_block = self.parse_label_operand()
        return BrInst(condition, true_block, false_block)

    def _parse_switch(self) -> SwitchInst:
        value = self.parse_typed_value()
        self.tokens.expect(PUNCT, ",")
        default = self.parse_label_operand()
        self.tokens.expect(PUNCT, "[")
        cases = []
        while not self.tokens.at(PUNCT, "]"):
            case_type = self.parent.parse_type()
            case_value = self.parse_value(case_type)
            if case_value.KIND != "int":
                raise SyntaxError("switch case values must be integer constants")
            self.tokens.expect(PUNCT, ",")
            cases.append((case_value, self.parse_label_operand()))
        self.tokens.expect(PUNCT, "]")
        return SwitchInst(value, default, cases)

    def _parse_phi(self) -> PhiNode:
        type = self.parent.parse_type()
        phi = PhiNode(type)
        first = True
        while True:
            if not first and not self.tokens.accept(PUNCT, ","):
                break
            first = False
            self.tokens.expect(PUNCT, "[")
            value = self.parse_value(type)
            self.tokens.expect(PUNCT, ",")
            label = self.tokens.expect(LOCAL).text
            self.tokens.expect(PUNCT, "]")
            phi.add_incoming(value, self.get_block(label))
        if phi.num_operands() == 0:
            raise SyntaxError("phi requires at least one incoming edge")
        return phi

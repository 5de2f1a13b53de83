"""IR classification constants and the opcode dispatch tables.

Hot code classifies values, instructions and types by reading class
constants (``KIND``, ``IS_TERMINATOR``, ``IS_VOID`` ...) instead of
calling ``isinstance``, and dispatches on ``inst.opcode`` through tables
built by ``opcode_table``.  These tests pin each constant to the
``isinstance`` definition it replaced, for every class there is, and
every dispatch table to the parser's full opcode set.  A new value,
instruction or type class, or a new opcode, fails here until it is
tagged.
"""

import ast
import inspect
import os
import textwrap

import pytest

import repro
from repro.analysis import knownbits
from repro.ir import instructions as ir_instructions
from repro.ir import parse_module
from repro.ir.basicblock import BasicBlock
from repro.ir.function import Function
from repro.ir.instructions import (OPCODE_CLASSES, OPCODES, AllocaInst,
                                   BinaryOperator, BrInst, CallInst, CastInst,
                                   FreezeInst, GEPInst, ICmpInst, Instruction,
                                   LoadInst, PhiNode, RetInst, SelectInst,
                                   StoreInst, SwitchInst, UnreachableInst,
                                   opcode_table)
from repro.ir.parser import parser as ir_parser
from repro.ir.types import (FunctionType, IntType, LabelType, PtrType, Type,
                            VoidType)
from repro.ir.values import (_CONSTANT_KEYS, Argument, Constant, ConstantInt,
                             ConstantPointerNull, PoisonValue, UndefValue,
                             User, Value)
from repro.ir import fingerprint
from repro.opt import fold
from repro.opt.passes import early_cse, instsimplify
from repro.tv import batch


def subclasses(root):
    found, stack = [], [root]
    while stack:
        for cls in stack.pop().__subclasses__():
            if cls not in found:
                found.append(cls)
                stack.append(cls)
    return found


# Every concrete value class, by the KIND it must carry.
KIND_CLASSES = {
    "int": ConstantInt, "undef": UndefValue, "poison": PoisonValue,
    "null": ConstantPointerNull, "function": Function,
    "argument": Argument, "block": BasicBlock,
    "forward": ir_parser._Forward,
    "binop": BinaryOperator, "icmp": ICmpInst, "select": SelectInst,
    "cast": CastInst, "freeze": FreezeInst, "alloca": AllocaInst,
    "load": LoadInst, "store": StoreInst, "gep": GEPInst, "call": CallInst,
    "ret": RetInst, "br": BrInst, "switch": SwitchInst,
    "unreachable": UnreachableInst, "phi": PhiNode,
}
ABSTRACT_VALUES = {User, Constant, Instruction}
TERMINATORS = (RetInst, BrInst, SwitchInst, UnreachableInst)

# Every concrete type class, by the one IS_* flag it sets.
TYPE_FLAGS = {
    VoidType: "IS_VOID", LabelType: "IS_LABEL", IntType: "IS_INTEGER",
    PtrType: "IS_POINTER", FunctionType: "IS_FUNCTION",
}


class TestValueKinds:
    def test_every_value_class_is_tagged(self):
        concrete = set(subclasses(Value)) - ABSTRACT_VALUES
        assert concrete == set(KIND_CLASSES.values())
        for cls in concrete:
            # Set on the class itself, not inherited from a base.
            assert "KIND" in vars(cls), cls

    @pytest.mark.parametrize("kind", sorted(KIND_CLASSES))
    def test_kind_is_the_isinstance_test(self, kind):
        for cls in subclasses(Value) + [Value]:
            assert (cls.KIND == kind) == issubclass(cls, KIND_CLASSES[kind])

    def test_group_flags_are_the_isinstance_tests(self):
        for cls in subclasses(Value) + [Value]:
            assert cls.IS_CONSTANT == issubclass(cls, Constant), cls
            assert cls.IS_INSTRUCTION == issubclass(cls, Instruction), cls
            assert cls.IS_TERMINATOR == issubclass(cls, TERMINATORS), cls

    def test_instance_reads_the_class_constant(self):
        # A constant lives on the class: no instance carries its own.
        value = ConstantInt(IntType(8), 3)
        assert value.KIND == "int" and value.IS_CONSTANT
        assert not hasattr(value, "__dict__")


class TestTypeFlags:
    def test_every_type_class_is_tagged(self):
        assert set(subclasses(Type)) == set(TYPE_FLAGS)
        for cls, flag in TYPE_FLAGS.items():
            assert vars(cls).get(flag) is True, cls

    def test_flags_are_the_isinstance_tests(self):
        for cls in subclasses(Type) + [Type]:
            assert cls.IS_INTEGER == issubclass(cls, IntType)
            assert cls.IS_POINTER == issubclass(cls, PtrType)
            assert cls.IS_VOID == issubclass(cls, VoidType)
            assert cls.IS_LABEL == issubclass(cls, LabelType)
            assert cls.IS_FUNCTION == issubclass(cls, FunctionType)
            assert cls.IS_FIRST_CLASS == issubclass(cls, (IntType, PtrType))

    def test_width_and_mask_are_plain_attributes(self):
        i12 = IntType(12)
        assert vars(i12) == {"width": 12, "mask": 0xFFF}
        assert i12 is IntType(12)


def kind_literals():
    """Every string a ``KIND`` is compared with anywhere in the package.

    Covers ``x.KIND == "..."`` and ``kind == "..."`` where ``kind`` was
    assigned from a ``.KIND`` read; ``!=`` and ``in`` count too.
    """
    root = os.path.dirname(repro.__file__)
    found = []
    for directory, _, files in os.walk(root):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(directory, name)
            with open(path) as stream:
                tree = ast.parse(stream.read(), path)
            names = {target.id for node in ast.walk(tree)
                     if isinstance(node, ast.Assign)
                     and isinstance(node.value, ast.Attribute)
                     and node.value.attr == "KIND"
                     for target in node.targets
                     if isinstance(target, ast.Name)}

            def reads_kind(node):
                return (isinstance(node, ast.Attribute) and node.attr == "KIND"
                        or isinstance(node, ast.Name) and node.id in names)

            for node in ast.walk(tree):
                if isinstance(node, ast.Compare) and reads_kind(node.left):
                    for right in node.comparators:
                        constants = right.elts if isinstance(
                            right, (ast.Tuple, ast.Set, ast.List)) else [right]
                        found.extend((path, node.lineno, c.value)
                                     for c in constants
                                     if isinstance(c, ast.Constant))
    return found


def test_every_kind_compared_with_exists():
    literals = kind_literals()
    assert len(literals) > 100
    assert [entry for entry in literals
            if entry[2] not in KIND_CLASSES] == []


def test_replaced_predicates_are_gone():
    for name in ("is_integer", "is_pointer", "is_void", "is_label",
                 "is_function", "is_first_class"):
        assert not hasattr(Type, name), name
    for name in ("is_terminator", "is_binary_op", "is_phi", "is_constant"):
        assert not hasattr(Instruction, name), name
    assert not hasattr(ir_instructions, "terminator_successors")


# -- opcodes -------------------------------------------------------------------


def parser_opcodes():
    """The opcodes ``_BodyParser._dispatch`` accepts, read from its source."""
    source = textwrap.dedent(inspect.getsource(ir_parser._BodyParser._dispatch))
    found = set()
    for node in ast.walk(ast.parse(source)):
        if not (isinstance(node, ast.Compare)
                and isinstance(node.left, ast.Name)
                and node.left.id == "opcode"):
            continue
        op, right = node.ops[0], node.comparators[0]
        if isinstance(op, ast.Eq):
            found.add(right.value)
        elif isinstance(op, ast.In):
            found.update(getattr(ir_parser, right.id))
    return found


SAMPLE = """
declare i32 @llvm.smax.i32(i32, i32)

define i32 @f(i32 %x, ptr %p, i1 %c) {
entry:
  %add = add i32 %x, 1
  %sub = sub i32 %x, 1
  %mul = mul i32 %x, 3
  %udiv = udiv i32 %x, 3
  %sdiv = sdiv i32 %x, 3
  %urem = urem i32 %x, 3
  %srem = srem i32 %x, 3
  %shl = shl i32 %x, 1
  %lshr = lshr i32 %x, 1
  %ashr = ashr i32 %x, 1
  %and = and i32 %x, 1
  %or = or i32 %x, 1
  %xor = xor i32 %x, 1
  %cmp = icmp eq i32 %x, 0
  %sel = select i1 %cmp, i32 %x, i32 0
  %tr = trunc i32 %x to i8
  %ze = zext i8 %tr to i32
  %se = sext i8 %tr to i32
  %fr = freeze i32 %x
  %a = alloca i32
  store i32 %x, ptr %a
  %ld = load i32, ptr %a
  %gep = getelementptr i32, ptr %p, i64 1
  %call = call i32 @llvm.smax.i32(i32 %x, i32 %ld)
  br i1 %c, label %next, label %other
next:
  switch i32 %x, label %other [ i32 0, label %done ]
other:
  unreachable
done:
  %phi = phi i32 [ %call, %next ]
  ret i32 %phi
}
"""


class TestOpcodes:
    def test_parser_accepts_exactly_the_tagged_opcodes(self):
        assert parser_opcodes() == set(OPCODES)

    def test_every_opcode_parses_to_its_class(self):
        module = parse_module(SAMPLE)
        seen = {}
        for block in module.get_function("f").blocks:
            for inst in block.instructions:
                seen[inst.opcode] = type(inst)
        assert seen == OPCODE_CLASSES

    def test_every_instruction_class_has_an_opcode(self):
        assert set(subclasses(Instruction)) == set(OPCODE_CLASSES.values())

    def test_opcode_table_fills_the_default_and_refuses_strangers(self):
        table = opcode_table("default", {"add": "added"})
        assert set(table) == set(OPCODES)
        assert table["add"] == "added" and table["phi"] == "default"
        with pytest.raises(ValueError):
            opcode_table(None, {"fadd": "nope"})


# Each dispatch table with the opcodes its old isinstance chain handled;
# every other opcode must reach the default the chain fell through to.
BINARY = set(ir_instructions.BINARY_OPCODES)
CASTS = set(ir_instructions.CAST_OPCODES)
OPCODE_TABLES = [
    ("knownbits", knownbits._KNOWN_BITS, knownbits._kb_unknown,
     {"and", "or", "xor", "add", "sub", "mul", "shl", "lshr", "ashr",
      "urem", "select", "phi", "call"} | CASTS),
    ("instsimplify", instsimplify._SIMPLIFIERS, None,
     BINARY | {"icmp", "select", "freeze"}),
    ("fold", fold._FOLDERS, None, BINARY | CASTS | {"icmp", "select", "call"}),
    ("early-cse", early_cse._EXPRESSION_KEYS, None,
     BINARY | CASTS | {"icmp", "select", "getelementptr", "call"}),
    ("batch", batch._COMPILERS, batch._BatchCompiler.compile_unsupported,
     set(OPCODES) - {"phi"}),
]


@pytest.mark.parametrize("name,table,default,handled", OPCODE_TABLES,
                         ids=[entry[0] for entry in OPCODE_TABLES])
def test_opcode_table_covers_every_opcode(name, table, default, handled):
    assert set(table) == set(OPCODES)
    for opcode in OPCODES:
        if opcode in handled:
            assert table[opcode] is not default, opcode
        else:
            assert table[opcode] is default, opcode


CONSTANT_KINDS = {cls.KIND for cls in subclasses(Constant)}


@pytest.mark.parametrize("table", [
    _CONSTANT_KEYS, batch._CONSTANT_OPERANDS, fingerprint._CONSTANT_ENCODINGS,
], ids=["constant_to_key", "batch-operands", "fingerprint"])
def test_constant_table_covers_every_constant_kind(table):
    assert set(table) == CONSTANT_KINDS

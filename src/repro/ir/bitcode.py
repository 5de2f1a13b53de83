"""A compact binary module format (the "bitcode" analog).

The paper's tool accepts IR "in either the human-readable text format or
the compact binary bitcode format" (§III-A).  This codec provides the
binary side: a varint-based, self-contained encoding of a module that
round-trips exactly through :func:`write_bitcode` / :func:`read_bitcode`.

Layout (all integers are unsigned LEB128 varints unless noted):

    magic "RBC1"
    string table:   count, then length-prefixed UTF-8 strings
    type table:     count, then records (kind tag + payload)
    function count, then per function:
        name, type index, flags(definition?), function attrs,
        per-arg (name, attrs)
        block count, then per block: name, instruction count,
            instruction records

Values inside a function are numbered: arguments first, then basic
blocks, then instructions in order; operands reference those numbers.
Constants are encoded inline in the operand stream.  Forward references
(phis, branches) work because decoding materializes instruction and
block shells before patching operands.
"""

from __future__ import annotations

import io
from typing import Dict, List, Tuple

from .attributes import Attribute, AttributeSet
from .basicblock import BasicBlock
from .function import Function
from .instructions import (AllocaInst, BINARY_OPCODES, BinaryOperator,
                           BrInst, CAST_OPCODES, CallInst, CastInst,
                           FreezeInst, GEPInst, ICMP_PREDICATES, ICmpInst,
                           Instruction, LoadInst, OperandBundle, PhiNode,
                           RetInst, SelectInst, StoreInst, SwitchInst,
                           UnreachableInst)
from .module import Module
from .types import (FunctionType, IntType, LabelType, PtrType, Type,
                    VoidType)
from .values import (ConstantInt, ConstantPointerNull, PoisonValue, UndefValue,
                     Value)

MAGIC = b"RBC1"


class BitcodeError(Exception):
    """Malformed binary module data."""


# -- varint primitives --------------------------------------------------------


def _write_varint(out: io.BytesIO, value: int) -> None:
    if value < 0:
        raise ValueError("varints are unsigned")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.write(bytes([byte | 0x80]))
        else:
            out.write(bytes([byte]))
            return


def _read_varint(data: io.BytesIO) -> int:
    result = 0
    shift = 0
    while True:
        chunk = data.read(1)
        if not chunk:
            raise BitcodeError("truncated varint")
        byte = chunk[0]
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result
        shift += 7
        if shift > 200:
            raise BitcodeError("varint too long")


def _write_str(out: io.BytesIO, text: str) -> None:
    encoded = text.encode()
    _write_varint(out, len(encoded))
    out.write(encoded)


def _read_str(data: io.BytesIO) -> str:
    length = _read_varint(data)
    raw = data.read(length)
    if len(raw) != length:
        raise BitcodeError("truncated string")
    return raw.decode()


# -- type table -----------------------------------------------------------------

_TYPE_VOID, _TYPE_INT, _TYPE_PTR, _TYPE_LABEL, _TYPE_FUNCTION = range(5)


class _TypeTable:
    def __init__(self) -> None:
        self.types: List[Type] = []
        self._index: Dict[Type, int] = {}

    def intern(self, type: Type) -> int:
        existing = self._index.get(type)
        if existing is not None:
            return existing
        if type.IS_FUNCTION:
            # Intern components first so decoding sees them earlier.
            self.intern(type.return_type)
            for param in type.param_types:
                self.intern(param)
        index = len(self.types)
        self.types.append(type)
        self._index[type] = index
        return index

    def write(self, out: io.BytesIO) -> None:
        _write_varint(out, len(self.types))
        for type in self.types:
            if type.IS_VOID:
                _write_varint(out, _TYPE_VOID)
            elif type.IS_INTEGER:
                _write_varint(out, _TYPE_INT)
                _write_varint(out, type.width)
            elif type.IS_POINTER:
                _write_varint(out, _TYPE_PTR)
            elif type.IS_LABEL:
                _write_varint(out, _TYPE_LABEL)
            elif type.IS_FUNCTION:
                _write_varint(out, _TYPE_FUNCTION)
                _write_varint(out, self._index[type.return_type])
                _write_varint(out, len(type.param_types))
                for param in type.param_types:
                    _write_varint(out, self._index[param])
                _write_varint(out, int(type.is_vararg))
            else:
                raise BitcodeError(f"cannot encode type {type}")

    @classmethod
    def read(cls, data: io.BytesIO) -> List[Type]:
        count = _read_varint(data)
        types: List[Type] = []
        for _ in range(count):
            kind = _read_varint(data)
            if kind == _TYPE_VOID:
                types.append(VoidType())
            elif kind == _TYPE_INT:
                types.append(IntType(_read_varint(data)))
            elif kind == _TYPE_PTR:
                types.append(PtrType())
            elif kind == _TYPE_LABEL:
                types.append(LabelType())
            elif kind == _TYPE_FUNCTION:
                return_type = types[_read_varint(data)]
                params = tuple(types[_read_varint(data)]
                               for _ in range(_read_varint(data)))
                vararg = bool(_read_varint(data))
                types.append(FunctionType(return_type, params, vararg))
            else:
                raise BitcodeError(f"unknown type tag {kind}")
        return types


# -- attributes -------------------------------------------------------------------


def _write_attrs(out: io.BytesIO, attrs: AttributeSet) -> None:
    items = list(attrs)
    _write_varint(out, len(items))
    for attr in items:
        _write_str(out, attr.name)
        if attr.value is None:
            _write_varint(out, 0)
        else:
            _write_varint(out, 1)
            _write_varint(out, attr.value)


def _read_attrs(data: io.BytesIO) -> AttributeSet:
    attrs = AttributeSet()
    for _ in range(_read_varint(data)):
        name = _read_str(data)
        if _read_varint(data):
            attrs.add(Attribute(name, _read_varint(data)))
        else:
            attrs.add(Attribute(name))
    return attrs


# -- operand encoding ----------------------------------------------------------------

_OP_VALUE, _OP_CONST_INT, _OP_UNDEF, _OP_POISON, _OP_NULL, _OP_GLOBAL = range(6)


class _FunctionEncoder:
    def __init__(self, function: Function, types: _TypeTable,
                 global_index: Dict[int, int]) -> None:
        self.function = function
        self.types = types
        self.global_index = global_index
        self.value_index: Dict[int, int] = {}
        counter = 0
        for argument in function.arguments:
            self.value_index[id(argument)] = counter
            counter += 1
        for block in function.blocks:
            self.value_index[id(block)] = counter
            counter += 1
        for block in function.blocks:
            for inst in block.instructions:
                self.value_index[id(inst)] = counter
                counter += 1

    def write_operand(self, out: io.BytesIO, value: Value) -> None:
        local = self.value_index.get(id(value))
        if local is not None:
            _write_varint(out, _OP_VALUE)
            _write_varint(out, local)
            return
        if value.KIND == "int":
            _write_varint(out, _OP_CONST_INT)
            _write_varint(out, self.types.intern(value.type))
            _write_varint(out, value.value)
            return
        if value.KIND == "undef":
            _write_varint(out, _OP_UNDEF)
            _write_varint(out, self.types.intern(value.type))
            return
        if value.KIND == "poison":
            _write_varint(out, _OP_POISON)
            _write_varint(out, self.types.intern(value.type))
            return
        if value.KIND == "null":
            _write_varint(out, _OP_NULL)
            return
        if value.KIND == "function":
            _write_varint(out, _OP_GLOBAL)
            _write_varint(out, self.global_index[id(value)])
            return
        raise BitcodeError(f"cannot encode operand {value!r}")


# Instruction kind tags.
(_I_BINOP, _I_ICMP, _I_SELECT, _I_CAST, _I_FREEZE, _I_ALLOCA, _I_LOAD,
 _I_STORE, _I_GEP, _I_CALL, _I_RET, _I_BR, _I_SWITCH, _I_UNREACHABLE,
 _I_PHI) = range(15)


def _write_instruction(out: io.BytesIO, inst: Instruction,
                       enc: _FunctionEncoder) -> None:
    _write_str(out, inst.name)
    if inst.KIND == "binop":
        _write_varint(out, _I_BINOP)
        _write_varint(out, BINARY_OPCODES.index(inst.opcode))
        flags = (inst.nuw << 0) | (inst.nsw << 1) | (inst.exact << 2)
        _write_varint(out, flags)
        _write_varint(out, enc.types.intern(inst.type))
        enc.write_operand(out, inst.operands[0])
        enc.write_operand(out, inst.operands[1])
    elif inst.KIND == "icmp":
        _write_varint(out, _I_ICMP)
        _write_varint(out, ICMP_PREDICATES.index(inst.predicate))
        enc.write_operand(out, inst.operands[0])
        enc.write_operand(out, inst.operands[1])
    elif inst.KIND == "select":
        _write_varint(out, _I_SELECT)
        for operand in inst.operands:
            enc.write_operand(out, operand)
    elif inst.KIND == "cast":
        _write_varint(out, _I_CAST)
        _write_varint(out, CAST_OPCODES.index(inst.opcode))
        _write_varint(out, enc.types.intern(inst.type))
        enc.write_operand(out, inst.value)
    elif inst.KIND == "freeze":
        _write_varint(out, _I_FREEZE)
        enc.write_operand(out, inst.value)
    elif inst.KIND == "alloca":
        _write_varint(out, _I_ALLOCA)
        _write_varint(out, enc.types.intern(inst.allocated_type))
        _write_varint(out, inst.align)
    elif inst.KIND == "load":
        _write_varint(out, _I_LOAD)
        _write_varint(out, enc.types.intern(inst.type))
        _write_varint(out, inst.align)
        enc.write_operand(out, inst.pointer)
    elif inst.KIND == "store":
        _write_varint(out, _I_STORE)
        _write_varint(out, inst.align)
        enc.write_operand(out, inst.value)
        enc.write_operand(out, inst.pointer)
    elif inst.KIND == "gep":
        _write_varint(out, _I_GEP)
        _write_varint(out, enc.types.intern(inst.source_type))
        _write_varint(out, int(inst.inbounds))
        _write_varint(out, len(inst.indices))
        enc.write_operand(out, inst.pointer)
        for index in inst.indices:
            enc.write_operand(out, index)
    elif inst.KIND == "call":
        _write_varint(out, _I_CALL)
        _write_varint(out, enc.global_index[id(inst.callee)])
        args = inst.args
        _write_varint(out, len(args))
        for arg in args:
            enc.write_operand(out, arg)
        _write_varint(out, len(inst.bundles))
        for bundle in inst.bundles:
            _write_str(out, bundle.tag)
            operands = inst.bundle_operands(bundle)
            _write_varint(out, len(operands))
            for operand in operands:
                enc.write_operand(out, operand)
    elif inst.KIND == "ret":
        _write_varint(out, _I_RET)
        if inst.return_value is None:
            _write_varint(out, 0)
        else:
            _write_varint(out, 1)
            enc.write_operand(out, inst.return_value)
    elif inst.KIND == "br":
        _write_varint(out, _I_BR)
        _write_varint(out, int(inst.is_conditional()))
        for operand in inst.operands:
            enc.write_operand(out, operand)
    elif inst.KIND == "switch":
        _write_varint(out, _I_SWITCH)
        cases = inst.cases()
        _write_varint(out, len(cases))
        enc.write_operand(out, inst.value)
        enc.write_operand(out, inst.default)
        for case_value, case_block in cases:
            enc.write_operand(out, case_value)
            enc.write_operand(out, case_block)
    elif inst.KIND == "unreachable":
        _write_varint(out, _I_UNREACHABLE)
    elif inst.KIND == "phi":
        _write_varint(out, _I_PHI)
        _write_varint(out, enc.types.intern(inst.type))
        incoming = inst.incoming()
        _write_varint(out, len(incoming))
        for value, block in incoming:
            enc.write_operand(out, value)
            enc.write_operand(out, block)
    else:
        raise BitcodeError(f"cannot encode instruction {inst!r}")


# -- top level ----------------------------------------------------------------------


def write_bitcode(module: Module) -> bytes:
    """Serialize a module to the compact binary format."""
    out = io.BytesIO()
    out.write(MAGIC)
    _write_str(out, module.name)

    types = _TypeTable()
    functions = module.functions()
    global_index = {id(fn): i for i, fn in enumerate(functions)}

    body = io.BytesIO()
    _write_varint(body, len(functions))
    for function in functions:
        _write_str(body, function.name)
        _write_varint(body, types.intern(function.function_type))
        _write_varint(body, int(not function.is_declaration()))
        _write_attrs(body, function.attributes)
        for argument in function.arguments:
            _write_str(body, argument.name)
            _write_attrs(body, argument.attributes)
        if function.is_declaration():
            continue
        enc = _FunctionEncoder(function, types, global_index)
        _write_varint(body, len(function.blocks))
        for block in function.blocks:
            _write_str(body, block.name)
            _write_varint(body, len(block.instructions))
            for inst in block.instructions:
                _write_instruction(body, inst, enc)

    # Types are written after the body is encoded (interning fills the
    # table), but appear before it in the stream.
    types.write(out)
    out.write(body.getvalue())
    return out.getvalue()


def read_bitcode(data: bytes) -> Module:
    """Deserialize a module produced by :func:`write_bitcode`."""
    stream = io.BytesIO(data)
    if stream.read(4) != MAGIC:
        raise BitcodeError("bad magic")
    module = Module(_read_str(stream))
    types = _TypeTable.read(stream)

    function_count = _read_varint(stream)
    # Pass 1 requires function shells before bodies reference them, so
    # decode lazily: read everything per function but delay operand
    # patching until all functions exist.
    pending: List[Tuple[Function, List]] = []
    for _ in range(function_count):
        name = _read_str(stream)
        function_type = types[_read_varint(stream)]
        is_definition = bool(_read_varint(stream))
        function = Function(function_type, name, module)
        function.attributes = _read_attrs(stream)
        for argument in function.arguments:
            argument.name = _read_str(stream)
            argument.attributes = _read_attrs(stream)
        if not is_definition:
            continue
        block_records = []
        for _ in range(_read_varint(stream)):
            block_name = _read_str(stream)
            instructions = []
            for _ in range(_read_varint(stream)):
                instructions.append(_read_instruction_record(stream, types))
            block_records.append((block_name, instructions))
        pending.append((function, block_records))

    functions = module.functions()
    for function, block_records in pending:
        _materialize_body(function, block_records, functions, types)
    return module


def _read_operand_record(stream: io.BytesIO, types: List[Type]):
    kind = _read_varint(stream)
    if kind == _OP_VALUE:
        return ("value", _read_varint(stream))
    if kind == _OP_CONST_INT:
        type = types[_read_varint(stream)]
        return ("const", type, _read_varint(stream))
    if kind == _OP_UNDEF:
        return ("undef", types[_read_varint(stream)])
    if kind == _OP_POISON:
        return ("poison", types[_read_varint(stream)])
    if kind == _OP_NULL:
        return ("null",)
    if kind == _OP_GLOBAL:
        return ("global", _read_varint(stream))
    raise BitcodeError(f"unknown operand tag {kind}")


def _read_instruction_record(stream: io.BytesIO, types: List[Type]):
    name = _read_str(stream)
    kind = _read_varint(stream)
    def operand():
        return _read_operand_record(stream, types)
    if kind == _I_BINOP:
        opcode = BINARY_OPCODES[_read_varint(stream)]
        flags = _read_varint(stream)
        type = types[_read_varint(stream)]
        return (name, kind, opcode, flags, type, operand(), operand())
    if kind == _I_ICMP:
        predicate = ICMP_PREDICATES[_read_varint(stream)]
        return (name, kind, predicate, operand(), operand())
    if kind == _I_SELECT:
        return (name, kind, operand(), operand(), operand())
    if kind == _I_CAST:
        opcode = CAST_OPCODES[_read_varint(stream)]
        type = types[_read_varint(stream)]
        return (name, kind, opcode, type, operand())
    if kind == _I_FREEZE:
        return (name, kind, operand())
    if kind == _I_ALLOCA:
        return (name, kind, types[_read_varint(stream)],
                _read_varint(stream))
    if kind == _I_LOAD:
        return (name, kind, types[_read_varint(stream)],
                _read_varint(stream), operand())
    if kind == _I_STORE:
        return (name, kind, _read_varint(stream), operand(), operand())
    if kind == _I_GEP:
        source_type = types[_read_varint(stream)]
        inbounds = bool(_read_varint(stream))
        index_count = _read_varint(stream)
        pointer = operand()
        indices = [operand() for _ in range(index_count)]
        return (name, kind, source_type, inbounds, pointer, indices)
    if kind == _I_CALL:
        callee = _read_varint(stream)
        args = [operand() for _ in range(_read_varint(stream))]
        bundles = []
        for _ in range(_read_varint(stream)):
            tag = _read_str(stream)
            inputs = [operand() for _ in range(_read_varint(stream))]
            bundles.append((tag, inputs))
        return (name, kind, callee, args, bundles)
    if kind == _I_RET:
        if _read_varint(stream):
            return (name, kind, operand())
        return (name, kind, None)
    if kind == _I_BR:
        conditional = _read_varint(stream)
        operands = [operand() for _ in range(3 if conditional else 1)]
        return (name, kind, conditional, operands)
    if kind == _I_SWITCH:
        case_count = _read_varint(stream)
        value = operand()
        default = operand()
        cases = [(operand(), operand()) for _ in range(case_count)]
        return (name, kind, value, default, cases)
    if kind == _I_UNREACHABLE:
        return (name, kind)
    if kind == _I_PHI:
        type = types[_read_varint(stream)]
        incoming = [(operand(), operand())
                    for _ in range(_read_varint(stream))]
        return (name, kind, type, incoming)
    raise BitcodeError(f"unknown instruction tag {kind}")


def _materialize_body(function: Function, block_records, functions,
                      types) -> None:
    values: List[Value] = list(function.arguments)
    blocks: List[BasicBlock] = []
    for block_name, _ in block_records:
        block = BasicBlock(block_name, function)
        blocks.append(block)
        values.append(block)

    def resolve(record):
        tag = record[0]
        if tag == "value":
            return values[record[1]]
        if tag == "const":
            return ConstantInt(record[1], record[2])
        if tag == "undef":
            return UndefValue(record[1])
        if tag == "poison":
            return PoisonValue(record[1])
        if tag == "null":
            return ConstantPointerNull()
        if tag == "global":
            return functions[record[1]]
        raise BitcodeError(f"bad operand record {record}")

    # Two passes: shells first (so forward value references resolve),
    # then operand patching.  Shells are created with safe placeholder
    # operands of the right types.
    pending_patch = []
    for (block_name, records), block in zip(block_records, blocks):
        for record in records:
            inst = _decode_shell(record, resolve)
            inst.name = record[0]
            block.append(inst)
            values.append(inst)
            pending_patch.append((inst, record))

    for inst, record in pending_patch:
        _patch_operands(inst, record, resolve)


def _decode_shell(record, resolve) -> Instruction:
    kind = record[1]
    if kind == _I_BINOP:
        _, _, opcode, flags, type, lhs, rhs = record
        placeholder = UndefValue(type)
        return BinaryOperator(opcode, placeholder, placeholder,
                              nuw=bool(flags & 1), nsw=bool(flags & 2),
                              exact=bool(flags & 4))
    if kind == _I_ICMP:
        # The compare operands' type comes from the operand records.
        placeholder = UndefValue(_operand_type(record[3], resolve))
        return ICmpInst(record[2], placeholder, placeholder)
    if kind == _I_SELECT:
        value_type = _operand_type(record[3], resolve)
        cond = UndefValue(IntType(1))
        placeholder = UndefValue(value_type)
        return SelectInst(cond, placeholder, placeholder)
    if kind == _I_CAST:
        _, _, opcode, type, value = record
        return CastInst(opcode, UndefValue(_operand_type(value, resolve)),
                        type)
    if kind == _I_FREEZE:
        return FreezeInst(UndefValue(_operand_type(record[2], resolve)))
    if kind == _I_ALLOCA:
        return AllocaInst(record[2], align=record[3])
    if kind == _I_LOAD:
        return LoadInst(record[2], UndefValue(PtrType()), align=record[3])
    if kind == _I_STORE:
        return StoreInst(UndefValue(_operand_type(record[3], resolve)),
                         UndefValue(PtrType()), align=record[2])
    if kind == _I_GEP:
        _, _, source_type, inbounds, pointer, indices = record
        placeholders = [UndefValue(_operand_type(i, resolve))
                        for i in indices]
        return GEPInst(source_type, UndefValue(PtrType()), placeholders,
                       inbounds=inbounds)
    if kind == _I_CALL:
        _, _, callee_index, args, bundles = record
        callee = resolve(("global", callee_index))
        arg_placeholders = [UndefValue(t) for t in
                            callee.function_type.param_types]
        call = CallInst(callee, arg_placeholders)
        for tag, inputs in bundles:
            call.add_bundle(OperandBundle(
                tag, [UndefValue(_operand_type(i, resolve))
                      for i in inputs]))
        return call
    if kind == _I_RET:
        if record[2] is None:
            return RetInst()
        return RetInst(UndefValue(_operand_type(record[2], resolve)))
    if kind == _I_BR:
        _, _, conditional, operands = record
        dummy = BasicBlock("")
        if conditional:
            return BrInst(UndefValue(IntType(1)), dummy, dummy)
        return BrInst(dummy)
    if kind == _I_SWITCH:
        _, _, value, default, cases = record
        dummy = BasicBlock("")
        value_type = _operand_type(value, resolve)
        return SwitchInst(UndefValue(value_type), dummy,
                          [(ConstantInt(value_type, 0), dummy)
                           for _ in cases])
    if kind == _I_UNREACHABLE:
        return UnreachableInst()
    if kind == _I_PHI:
        _, _, type, incoming = record
        dummy = BasicBlock("")
        phi = PhiNode(type)
        for _ in incoming:
            phi.add_incoming(UndefValue(type), dummy)
        return phi
    raise BitcodeError(f"bad record {record}")


def _operand_type(record, resolve) -> Type:
    """The type of an operand record, resolving value refs if needed."""
    tag = record[0]
    if tag in ("const", "undef", "poison"):
        return record[1]
    if tag == "null":
        return PtrType()
    return resolve(record).type


def _patch_operands(inst: Instruction, record, resolve) -> None:
    kind = record[1]
    if kind == _I_BINOP:
        inst.set_operand(0, resolve(record[5]))
        inst.set_operand(1, resolve(record[6]))
    elif kind == _I_ICMP:
        inst.set_operand(0, resolve(record[3]))
        inst.set_operand(1, resolve(record[4]))
    elif kind == _I_SELECT:
        for i in range(3):
            inst.set_operand(i, resolve(record[2 + i]))
    elif kind in (_I_CAST, _I_FREEZE):
        inst.set_operand(0, resolve(record[4] if kind == _I_CAST
                                    else record[2]))
    elif kind == _I_LOAD:
        inst.set_operand(0, resolve(record[4]))
    elif kind == _I_STORE:
        inst.set_operand(0, resolve(record[3]))
        inst.set_operand(1, resolve(record[4]))
    elif kind == _I_GEP:
        inst.set_operand(0, resolve(record[4]))
        for i, index_record in enumerate(record[5]):
            inst.set_operand(1 + i, resolve(index_record))
    elif kind == _I_CALL:
        _, _, _, args, bundles = record
        position = 0
        for arg_record in args:
            inst.set_operand(position, resolve(arg_record))
            position += 1
        for _, inputs in bundles:
            for input_record in inputs:
                inst.set_operand(position, resolve(input_record))
                position += 1
    elif kind == _I_RET:
        if record[2] is not None:
            inst.set_operand(0, resolve(record[2]))
    elif kind == _I_BR:
        for i, operand_record in enumerate(record[3]):
            inst.set_operand(i, resolve(operand_record))
    elif kind == _I_SWITCH:
        _, _, value, default, cases = record
        inst.set_operand(0, resolve(value))
        inst.set_operand(1, resolve(default))
        for i, (case_value, case_block) in enumerate(cases):
            inst.set_operand(2 + 2 * i, resolve(case_value))
            inst.set_operand(3 + 2 * i, resolve(case_block))
    elif kind == _I_PHI:
        _, _, _, incoming = record
        for i, (value_record, block_record) in enumerate(incoming):
            inst.set_operand(2 * i, resolve(value_record))
            inst.set_operand(2 * i + 1, resolve(block_record))


def load_module_file(path: str) -> Module:
    """Load a module from either textual (.ll) or binary (.bc) form,
    sniffing the magic bytes like the paper's tool (§III-A)."""
    with open(path, "rb") as stream:
        raw = stream.read()
    if raw[:4] == MAGIC:
        return read_bitcode(raw)
    from .parser import parse_module

    return parse_module(raw.decode(), path)

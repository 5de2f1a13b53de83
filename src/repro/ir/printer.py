"""Textual printer producing LLVM-``.ll``-style output.

Output round-trips through :mod:`repro.ir.parser`, which the property tests
rely on (parse → print → parse must be structurally identical).
"""

from __future__ import annotations

from typing import Dict, List

from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction
from .module import Module
from .values import Value


def print_module(module: Module) -> str:
    chunks: List[str] = []
    for function in module.declarations():
        chunks.append(print_declaration(function))
    for function in module.definitions():
        chunks.append(print_function(function))
    return "\n\n".join(chunks) + "\n"


def print_declaration(function: Function) -> str:
    params = ", ".join(str(t) for t in function.function_type.param_types)
    attrs = f" {function.attributes}" if function.attributes else ""
    return f"declare {function.return_type} @{function.name}({params}){attrs}"


def print_function(function: Function) -> str:
    namer = _Namer(function)
    params = []
    for arg in function.arguments:
        attr_str = f" {arg.attributes}" if arg.attributes else ""
        params.append(f"{arg.type}{attr_str} %{namer.name_of(arg)}")
    header = (f"define {function.return_type} @{function.name}"
              f"({', '.join(params)})")
    if function.attributes:
        header += f" {function.attributes}"
    lines = [header + " {"]
    for i, block in enumerate(function.blocks):
        if i > 0:
            lines.append("")
        label = namer.block_label(block)
        if i > 0 or label != "entry" or block.has_uses():
            lines.append(f"{label}:")
        for inst in block.instructions:
            lines.append("  " + print_instruction(inst, namer))
    lines.append("}")
    return "\n".join(lines)


def format_value(value: Value, namer: "_Namer") -> str:
    """The operand form of a value, without its type."""
    if value.KIND == "int":
        if value.type.width == 1:
            return "true" if value.value else "false"
        return str(value.signed_value())
    if value.KIND == "undef":
        return "undef"
    if value.KIND == "poison":
        return "poison"
    if value.KIND == "null":
        return "null"
    if value.KIND == "function":
        return f"@{value.name}"
    if value.KIND == "block":
        return f"%{namer.block_label(value)}"
    return f"%{namer.name_of(value)}"


def format_typed(value: Value, namer: "_Namer") -> str:
    if value.KIND == "block":
        return f"label %{namer.block_label(value)}"
    return f"{value.type} {format_value(value, namer)}"


def print_instruction(inst: Instruction, namer: "_Namer") -> str:
    result = ""
    if not inst.type.IS_VOID:
        result = f"%{namer.name_of(inst)} = "

    if inst.KIND == "binop":
        lhs, rhs = inst.operands
        return (f"{result}{inst.opcode} {inst.flags_repr()}{inst.type} "
                f"{format_value(lhs, namer)}, {format_value(rhs, namer)}")
    if inst.KIND == "icmp":
        lhs, rhs = inst.operands
        return (f"{result}icmp {inst.predicate} {lhs.type} "
                f"{format_value(lhs, namer)}, {format_value(rhs, namer)}")
    if inst.KIND == "select":
        return (f"{result}select {format_typed(inst.condition, namer)}, "
                f"{format_typed(inst.true_value, namer)}, "
                f"{format_typed(inst.false_value, namer)}")
    if inst.KIND == "cast":
        return (f"{result}{inst.opcode} {format_typed(inst.value, namer)} "
                f"to {inst.type}")
    if inst.KIND == "freeze":
        return f"{result}freeze {format_typed(inst.value, namer)}"
    if inst.KIND == "alloca":
        align = f", align {inst.align}" if inst.align else ""
        return f"{result}alloca {inst.allocated_type}{align}"
    if inst.KIND == "load":
        align = f", align {inst.align}" if inst.align else ""
        return (f"{result}load {inst.type}, "
                f"{format_typed(inst.pointer, namer)}{align}")
    if inst.KIND == "store":
        align = f", align {inst.align}" if inst.align else ""
        return (f"store {format_typed(inst.value, namer)}, "
                f"{format_typed(inst.pointer, namer)}{align}")
    if inst.KIND == "gep":
        indices = ", ".join(format_typed(i, namer) for i in inst.indices)
        return (f"{result}getelementptr {inst.flags_repr()}{inst.source_type}, "
                f"{format_typed(inst.pointer, namer)}, {indices}")
    if inst.KIND == "call":
        args = ", ".join(format_typed(a, namer) for a in inst.args)
        text = f"call {inst.callee.return_type} @{inst.callee.name}({args})"
        if inst.bundles:
            rendered = []
            for bundle in inst.bundles:
                inputs = ", ".join(format_typed(v, namer)
                                   for v in inst.bundle_operands(bundle))
                rendered.append(f'"{bundle.tag}"({inputs})')
            text += f" [ {', '.join(rendered)} ]"
        return result + text
    if inst.KIND == "ret":
        if inst.return_value is None:
            return "ret void"
        return f"ret {format_typed(inst.return_value, namer)}"
    if inst.KIND == "br":
        if inst.is_conditional():
            return (f"br {format_typed(inst.condition, namer)}, "
                    f"{format_typed(inst.operands[1], namer)}, "
                    f"{format_typed(inst.operands[2], namer)}")
        return f"br {format_typed(inst.operands[0], namer)}"
    if inst.KIND == "switch":
        cases = " ".join(
            f"{format_typed(v, namer)}, {format_typed(b, namer)}"
            for v, b in inst.cases())
        return (f"switch {format_typed(inst.value, namer)}, "
                f"{format_typed(inst.default, namer)} [ {cases} ]")
    if inst.KIND == "unreachable":
        return "unreachable"
    if inst.KIND == "phi":
        incoming = ", ".join(
            f"[ {format_value(v, namer)}, %{namer.block_label(b)} ]"
            for v, b in inst.incoming())
        return f"{result}phi {inst.type} {incoming}"
    raise ValueError(f"cannot print instruction: {inst!r}")


class _Namer:
    """Assigns display names; unnamed values get sequential %N slots."""

    def __init__(self, function: Function) -> None:
        self._names: Dict[int, str] = {}
        counter = 0
        taken = set()
        for arg in function.arguments:
            if arg.name:
                taken.add(arg.name)
        for block in function.blocks:
            if block.name:
                taken.add(block.name)
            for inst in block.instructions:
                if inst.name:
                    taken.add(inst.name)

        def fresh() -> str:
            nonlocal counter
            while str(counter) in taken:
                counter += 1
            name = str(counter)
            counter += 1
            return name

        for arg in function.arguments:
            self._names[id(arg)] = arg.name or fresh()
        for index, block in enumerate(function.blocks):
            if block.name:
                self._names[id(block)] = block.name
            elif index == 0:
                self._names[id(block)] = "entry" if "entry" not in taken else fresh()
            else:
                self._names[id(block)] = fresh()
            for inst in block.instructions:
                if inst.type.IS_VOID:
                    continue
                self._names[id(inst)] = inst.name or fresh()

    def name_of(self, value: Value) -> str:
        name = self._names.get(id(value))
        if name is None:
            # Value from outside the function (shouldn't happen in valid IR).
            return value.name or f"?{id(value) & 0xffff:x}"
        return name

    def block_label(self, block: BasicBlock) -> str:
        return self.name_of(block)

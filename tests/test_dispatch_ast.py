"""The opcode-dispatched hot paths stay free of classifying calls.

Known bits, InstSimplify, the folder, constant folding, the EarlyCSE key
and the batch compiler dispatch on ``inst.opcode`` / ``value.KIND``
through tables.  Each function named below (and every function those
tables hold) is parsed and must not call ``isinstance`` or read the
``lhs`` / ``rhs`` properties or ``is_terminator``: hot code reads
``operands[i]`` and class constants, and a call in their place would
bring back the per-instruction overhead one call at a time.
"""

import ast
import inspect
import textwrap

import pytest

from repro.analysis import knownbits
from repro.ir import fingerprint, values
from repro.opt import fold
from repro.opt.passes import constant_fold, early_cse, instsimplify
from repro.tv import batch

NAMED = [
    knownbits.compute_known_bits,
    knownbits._known_bits_instruction,
    knownbits.KnownBitsMemo.lookup,
    instsimplify.simplify_instruction,
    instsimplify._simplify_binary,
    fold.fold_instruction,
    fold.fold_binary,
    constant_fold.ConstantFolding._run,
    early_cse.expression_key,
    early_cse._operand_key,
    values.constant_to_key,
    batch._BatchCompiler.compile_instruction,
    batch._operand_info,
    fingerprint._encode_operand,
]
TABLES = [
    knownbits._KNOWN_BITS, instsimplify._SIMPLIFIERS, fold._FOLDERS,
    early_cse._EXPRESSION_KEYS, batch._COMPILERS, batch._CONSTANT_OPERANDS,
]

FORBIDDEN_ATTRIBUTES = {"lhs", "rhs", "is_terminator"}


def checked_functions():
    found = {}
    for function in NAMED + [entry for table in TABLES
                             for entry in table.values()]:
        if inspect.isfunction(function) and function.__name__ != "<lambda>":
            found[function.__qualname__] = function
    return found


def offences(function):
    source = textwrap.dedent(inspect.getsource(function))
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance":
            found.append(f"line {node.lineno}: isinstance(")
        elif isinstance(node, ast.Attribute) \
                and node.attr in FORBIDDEN_ATTRIBUTES:
            found.append(f"line {node.lineno}: .{node.attr}")
    return sorted(found)


FUNCTIONS = checked_functions()


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_no_classifying_calls(name):
    assert offences(FUNCTIONS[name]) == []


def test_every_table_entry_is_checked():
    # The tables hold the per-opcode handlers; all of them are parsed.
    assert len(FUNCTIONS) > len(NAMED) + 20


def test_the_check_sees_an_offence():
    def chain(inst):
        if isinstance(inst, object) and inst.lhs is inst.rhs:
            return inst.is_terminator
    assert offences(chain) == ["line 2: .lhs", "line 2: .rhs",
                               "line 2: isinstance(", "line 3: .is_terminator"]

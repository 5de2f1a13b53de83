"""Canonical structural fingerprints for functions (memoization keys).

The fuzzing loop re-optimizes and re-verifies many structurally identical
functions: untouched non-target definitions, failed mutation rounds, and
attribute/shuffle mutants that regenerate a shape already seen.  A
:func:`fingerprint_function` hash lets the driver recognise those repeats
and replay cached results instead (the paper's §III-B cache hierarchy,
lifted from analyses to whole optimize/verify outcomes).

The hash is *names-normalized* and *operand-position-based*: arguments,
blocks and instructions are numbered in program order (``A0``, ``B0``,
``V0``, ...), operands are encoded by those numbers, and self-references
(recursion) as ``self`` — so two alpha-equivalent functions — same
shape, different value/function names — collide on purpose.  Everything semantically relevant is folded in:
signature and vararg-ness, function/argument/call-site attribute sets,
opcodes and result types, poison flags (``nuw``/``nsw``/``exact``/
``inbounds``), icmp predicates, alignments, alloca/gep pointee types,
callee names and operand-bundle shapes, and every constant's type and
canonical value.  Cross-function references are encoded *by name*
(``fn:<name>``), matching how modules link calls, so a fingerprint is
only meaningful together with the fingerprints of the callees it names —
that is what :func:`fingerprint_closure` provides for verify-level keys.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

from .function import Function
from .instructions import (AllocaInst, BinaryOperator, CallInst, GEPInst,
                           ICmpInst, Instruction, LoadInst, StoreInst)
from .types import Type
from .values import Value

__all__ = [
    "called_definitions",
    "fingerprint_closure",
    "fingerprint_function",
    "referenced_functions",
    "references_definitions",
]


def _encode_operand(value: Value, function: Function,
                    labels: Dict[Value, str]) -> str:
    """Encoding of an operand the walk has not numbered yet.

    That is a constant (by type and value), a function (by name), an
    instruction of ``function`` that the layout defines later (numbered
    by its position now, and remembered in ``labels``), or a value of
    another function, which only malformed IR holds.
    """
    if value.IS_CONSTANT:
        return _CONSTANT_ENCODINGS[value.KIND](value)
    if value.IS_INSTRUCTION:
        position = _layout_position(function, value)
        if position is not None:
            label = labels[value] = f"V{position}"
            return label
    kind = type(value).__name__
    return f"?{kind}:{value.type}:{value.name}"


# The encoding of each kind of constant, by ``KIND``.
_CONSTANT_ENCODINGS = {
    "int": lambda value: f"ci{value.type.width}:{value.value}",
    "undef": lambda value: f"undef:{value.type}",
    "poison": lambda value: f"poison:{value.type}",
    "null": lambda value: "null",
    "function": lambda value: f"fn:{value.name}",
}


def _layout_position(function: Function, inst: Instruction) -> Optional[int]:
    """Index of ``inst`` among all of ``function``'s instructions."""
    position = 0
    for block in function.blocks:
        if block is inst.parent:
            for index, candidate in enumerate(block.instructions):
                if candidate is inst:
                    return position + index
            return None
        position += len(block.instructions)
    return None


def _canonical_tokens(function: Function) -> List[str]:
    """The token stream the fingerprint hashes, exposed for tests.

    One walk emits it.  Arguments and blocks are numbered up front; an
    instruction gets its number when the walk reaches it, or earlier,
    from its layout position, when an operand refers to it first (a phi
    back-edge).  Per-opcode payloads are dispatched on the exact class
    and flags are read from their fields; type names are formatted once
    per type.  This sits on the driver's hot path: every mutant function
    is hashed at least twice per iteration.
    """
    labels: Dict[Value, str] = {function: "self"}
    signature = function.function_type
    params = ",".join(str(t) for t in signature.param_types)
    vararg = "..." if signature.is_vararg else ""
    tokens = [f"sig:{signature.return_type}({params}{vararg})",
              f"fattrs:{function.attributes}"]
    for index, argument in enumerate(function.arguments):
        labels[argument] = f"A{index}"
        if argument.attributes:
            tokens.append(f"aattrs{index}:{argument.attributes}")
    for index, block in enumerate(function.blocks):
        labels[block] = f"B{index}"

    type_names: Dict[Type, str] = {}
    append = tokens.append
    next_value = 0
    for block in function.blocks:
        append(f"block:{labels[block]}")
        for inst in block.instructions:
            label = labels[inst] = f"V{next_value}"
            next_value += 1
            parts = []
            for operand in inst.operands:
                parts.append(labels[operand] if operand in labels
                             else _encode_operand(operand, function, labels))
            cls = inst.__class__
            flags = payload = ""
            if cls is BinaryOperator:
                flags = (("nuw " if inst.nuw else "")
                         + ("nsw " if inst.nsw else "")
                         + ("exact " if inst.exact else ""))
            elif cls is ICmpInst:
                payload = inst.predicate
            elif cls is LoadInst or cls is StoreInst:
                payload = f"@{inst.align}"
            elif cls is CallInst:
                # The callee is an attribute, not an operand.
                callee = inst.callee
                callee = (labels[callee] if callee in labels
                          else _encode_operand(callee, function, labels))
                bundles = ",".join(f"{bundle.tag}:{len(bundle.inputs)}"
                                   for bundle in inst.bundles)
                payload = (f"{callee};nargs={len(inst.args)};"
                           f"bundles={bundles};attrs={inst.attributes}")
            elif cls is AllocaInst:
                payload = f"{inst.allocated_type}@{inst.align}"
            elif cls is GEPInst:
                flags = "inbounds " if inst.inbounds else ""
                payload = str(inst.source_type)
            result_type = inst.type
            if result_type not in type_names:
                type_names[result_type] = str(result_type)
            append(f"{label}={inst.opcode}:{type_names[result_type]}:"
                   f"{flags}:{payload}({','.join(parts)})")
    return tokens


def fingerprint_function(function: Function,
                         fp_cache: Optional[Dict[int, str]] = None) -> str:
    """Hex digest of the canonical structural hash of one function.

    ``fp_cache`` (keyed by ``id(function)``) amortizes repeated lookups
    within one driver iteration; callers must only share a cache across
    functions that are not mutated between calls.
    """
    if fp_cache is not None:
        cached = fp_cache.get(id(function))
        if cached is not None:
            return cached
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update("\n".join(_canonical_tokens(function)).encode("utf-8"))
    digest = hasher.hexdigest()
    if fp_cache is not None:
        fp_cache[id(function)] = digest
    return digest


def referenced_functions(function: Function) -> List[Function]:
    """Every other Function object ``function``'s body references, in
    order of first reference (an instruction's operands, then its callee).

    A body references only functions of its own module, so a module
    that holds no other function needs no walk.
    """
    module = function.parent
    if module is not None and len(module) == 1:
        return []
    seen: Dict[Function, None] = {}
    for block in function.blocks:
        for inst in block.instructions:
            for value in inst.operands:
                if value.KIND == "function":
                    seen[value] = None
            if inst.KIND == "call" and inst.callee.KIND == "function":
                seen[inst.callee] = None
    seen.pop(function, None)
    return list(seen)


def called_definitions(function: Function) -> List[Function]:
    """Defined (non-declaration) functions, other than ``function``
    itself, that ``function`` references."""
    return [fn for fn in referenced_functions(function)
            if not fn.is_declaration()]


def references_definitions(function: Function) -> bool:
    """Does the body reference any defined function other than itself?

    Bodies that only reference declarations (or recurse into themselves)
    can be spliced into another module by remapping names; bodies that
    call other *definitions* cannot, because the cached body would keep
    executing the stale callee object.
    """
    return bool(called_definitions(function))


def fingerprint_closure(function: Function,
                        fp_cache: Optional[Dict[int, str]] = None) -> str:
    """Fingerprint of ``function`` plus every defined function it can reach.

    Verify verdicts depend on the bodies of transitively-called defined
    functions (the interpreter executes callee objects directly), so
    verify-cache keys must cover the whole call closure.  The common case
    — no calls into other definitions — degenerates to the plain
    function fingerprint with no extra hashing.
    """
    root = fingerprint_function(function, fp_cache)
    reachable: Dict[str, str] = {}
    stack = [function]
    visited = {function}
    while stack:
        current = stack.pop()
        for callee in called_definitions(current):
            if callee in visited:
                continue
            visited.add(callee)
            reachable[callee.name] = fingerprint_function(callee, fp_cache)
            stack.append(callee)
    if not reachable:
        return root
    hasher = hashlib.blake2b(digest_size=16)
    hasher.update(root.encode("utf-8"))
    for name in sorted(reachable):
        hasher.update(f"|{name}={reachable[name]}".encode("utf-8"))
    return hasher.hexdigest()

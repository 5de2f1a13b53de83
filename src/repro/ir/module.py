"""Modules: ordered collections of functions, plus clone support.

``Module.clone()`` is the workhorse of the fuzzing loop (paper §III-B):
each iteration deep-copies the in-memory IR, mutates the copy, optimizes
it, verifies refinement, and throws the copy away.  Cloning only reads
the source: it never touches a source value's use list.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Set, Tuple

from .basicblock import BasicBlock
from .function import Function
from .instructions import Instruction
from .types import FunctionType
from .values import NO_USES, Use, Value


class Module:
    """A translation unit holding named functions."""

    def __init__(self, name: str = "module") -> None:
        self.name = name
        self._functions: Dict[str, Function] = {}
        # Names of functions adopted from another module (copy-on-write
        # views); they must be treated as immutable and keep their
        # original parent.
        self._shared: Set[str] = set()

    # -- functions ----------------------------------------------------------

    def add_function(self, function: Function) -> Function:
        if function.name in self._functions:
            raise ValueError(f"duplicate function @{function.name}")
        function.parent = self
        self._functions[function.name] = function
        return function

    def adopt_shared(self, function: Function) -> Function:
        """Insert ``function`` as an immutable copy-on-write view.

        Unlike :meth:`add_function` this does *not* re-parent: the
        function still belongs to its original module, and this module
        must never mutate it (mutation targets are deep-copied instead;
        see :meth:`clone`).
        """
        if function.name in self._functions:
            raise ValueError(f"duplicate function @{function.name}")
        self._functions[function.name] = function
        self._shared.add(function.name)
        return function

    def shared_names(self) -> Set[str]:
        """Names of functions shared (not owned) by this module."""
        return set(self._shared)

    def get_function(self, name: str) -> Optional[Function]:
        return self._functions.get(name)

    def remove_function(self, name: str) -> None:
        function = self._functions.pop(name, None)
        self._shared.discard(name)
        if function is not None and function.parent is self:
            function.parent = None

    def functions(self) -> List[Function]:
        return list(self._functions.values())

    def definitions(self) -> List[Function]:
        return [f for f in self._functions.values() if not f.is_declaration()]

    def declarations(self) -> List[Function]:
        return [f for f in self._functions.values() if f.is_declaration()]

    def get_or_insert_function(self, name: str,
                               function_type: FunctionType) -> Function:
        existing = self._functions.get(name)
        if existing is not None:
            return existing
        return Function(function_type, name, self)

    def __iter__(self) -> Iterator[Function]:
        return iter(self._functions.values())

    def __len__(self) -> int:
        return len(self._functions)

    def __contains__(self, name: str) -> bool:
        return name in self._functions

    # -- cloning --------------------------------------------------------------

    def clone(self, mutable_only: Optional[Set[str]] = None) -> "Module":
        """Deep-copy the module, remapping all intra-module references.

        With ``mutable_only`` (copy-on-write mode, paper §III-B), only
        the named definitions are deep-copied; every other function —
        declarations and definitions nobody will mutate — is shared with
        this module as an immutable view (:meth:`adopt_shared`).  Copied
        bodies keep referencing the shared objects directly, which is
        exactly how the originals linked to them.
        """
        cloned = Module(self.name)
        value_map: Dict[Value, Value] = {}

        # Create all function shells first so calls can be remapped.
        copied: List[Function] = []
        for function in self._functions.values():
            if mutable_only is not None and (
                    function.is_declaration()
                    or function.name not in mutable_only):
                cloned.adopt_shared(function)
                continue
            value_map[function] = _copy_shell(function, function.name, cloned,
                                              value_map)
            copied.append(function)

        for function in copied:
            if function.is_declaration():
                continue
            _clone_function_body(function, value_map[function], value_map)
        return cloned

    def __repr__(self) -> str:
        return f"<Module {self.name!r}: {len(self._functions)} functions>"


def clone_functions_into(sources: Dict[str, Function],
                         dest: Module) -> Dict[str, Function]:
    """Deep-copy functions from arbitrary modules into ``dest``.

    The memoized optimize stage assembles its output module from cached
    optimized bodies (living in old, retired modules) plus fresh mutant
    functions, so unlike :meth:`Module.clone` the sources here do not
    share one module.  Cross-function references are relinked *by name*
    (the dict key, which may differ from the source's own name — that is
    how a cached body is spliced in under a renamed twin): a referenced
    function resolves to ``dest``'s function of that name, with a
    declaration shell created on demand.  The same source object may
    appear under several keys.  Returns the new functions by name.
    """
    shells: Dict[str, Function] = {}
    value_maps: Dict[str, Dict[Value, Value]] = {}
    for name, function in sources.items():
        value_map: Dict[Value, Value] = {}
        shells[name] = value_map[function] = _copy_shell(
            function, name, dest, value_map)
        value_maps[name] = value_map

    def resolve_function(function: Function) -> Function:
        existing = dest.get_function(function.name)
        if existing is not None:
            return existing
        return _copy_shell(function, function.name, dest)

    # Each body is cloned with its own value map (never shared: the same
    # source object may be spliced under several names, and one global
    # map would cross-wire their arguments); references to *other*
    # functions resolve by name instead.
    for name, function in sources.items():
        if function.is_declaration():
            continue
        _clone_function_body(function, shells[name], value_maps[name],
                             resolve_function)
    return shells


def _copy_shell(function: Function, name: str, module: Module,
                value_map: Optional[Dict[Value, Value]] = None) -> Function:
    """A body-less copy of ``function``'s signature and attributes, added
    to ``module`` as ``name``; its arguments go into ``value_map``."""
    shell = Function(function.function_type, name, module,
                     arg_names=[a.name for a in function.arguments])
    shell.attributes = function.attributes.copy()
    for old_arg, new_arg in zip(function.arguments, shell.arguments):
        new_arg.attributes = old_arg.attributes.copy()
        if value_map is not None:
            value_map[old_arg] = new_arg
    return shell


def _clone_function_body(source: Function, dest: Function,
                         value_map: Dict[Value, Value],
                         resolve_function=None) -> None:
    """Clone blocks and instructions of ``source`` into the shell ``dest``.

    One walk creates each instruction with its operands already mapped
    and registers every use on the copy's values only.  An operand that
    is defined later in layout order (a phi back-edge, say) is parked in
    its slot unregistered, and a second pass patches just those slots.
    Nothing is ever added to or removed from a source value's use list.
    ``resolve_function``, when given, maps function references that are
    not in ``value_map`` (cross-module splicing relinks those by name).
    """
    for block in source.blocks:
        value_map[block] = BasicBlock(block.name, dest)

    forward: List[Tuple[Instruction, int, Value]] = []
    for block in source.blocks:
        new_block = value_map[block]
        for inst in block.instructions:
            new = inst._bare_copy()
            new.name = inst.name
            is_call = inst.KIND == "call"
            if is_call:
                # Before the operands: resolving may create declarations,
                # and they join ``dest`` in order of first reference.
                callee = inst.callee
                if callee in value_map:
                    new.callee = value_map[callee]
                elif resolve_function is not None:
                    new.callee = resolve_function(callee)
            operands = new.operands
            operand_uses = new._operand_uses
            for slot, value in enumerate(inst.operands):
                if value in value_map:
                    value = value_map[value]
                    uses = value._uses
                elif value._uses is NO_USES:
                    if resolve_function is not None \
                            and value.KIND == "function":
                        value = resolve_function(value)
                    uses = NO_USES
                else:
                    forward.append((new, slot, value))
                    uses = NO_USES
                use = Use(new, slot)
                operands.append(value)
                operand_uses.append(use)
                if uses is not NO_USES:
                    uses.append(use)
            if is_call:
                new._bind_bundle_inputs()
            new_block.append(new)
            value_map[inst] = new

    # Values defined after their first use in layout order; anything
    # still unmapped belongs to no block of ``source`` and is kept.
    for new, slot, value in forward:
        value = new.operands[slot] = value_map.get(value, value)
        value._add_use(new._operand_uses[slot])
        if new.KIND == "call":
            new._bind_bundle_inputs()

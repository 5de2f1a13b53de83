"""Two-level analysis cache (paper §III-B).

Alive-mutate caches analyses (dominator tree, shufflable ranges, constant
pool) for the *original* function once, then runs many mutants cloned from
it.  Mutations can invalidate some of that information; the paper's answer
is a two-level structure: mutant-specific information is consulted first,
falling back to the immutable original information when the lookup misses.

Because a mutant here is a deep *clone*, original-level answers are
translated through stable names: clones preserve block and value names, so
dominance between mutant blocks can be answered by the original tree as
long as the mutant's CFG is untouched.  Mutations that change the CFG (or
shuffle instructions, etc.) mark the relevant key dirty; the next query
computes a mutant-level replacement lazily.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from ..ir.basicblock import BasicBlock
from ..ir.domtree import DominatorTree
from ..ir.function import Function
from ..ir.values import Value
from .constants_pool import ConstantPool
from .shuffle_ranges import ShuffleRange, shufflable_ranges


_MISSING = object()


class OriginalFunctionInfo:
    """Immutable analyses of an original (pre-mutation) function."""

    def __init__(self, function: Function) -> None:
        self.function = function
        self.domtree = DominatorTree(function)
        self.shuffle_ranges: List[ShuffleRange] = shufflable_ranges(function)
        self.constant_pool = ConstantPool(function)
        # Name -> original block, for translating mutant queries.
        self.blocks_by_name: Dict[str, BasicBlock] = {
            block.name: block for block in function.blocks if block.name
        }
        # Mutation-site descriptors keyed by kind, shared by every mutant
        # cloned from this function (see MutantOverlay.enumerate_sites).
        self._site_cache: Dict[str, List[tuple]] = {}

    def cached_sites(self, kind: str,
                     scan: Callable[[Function], List[tuple]]) -> List[tuple]:
        sites = self._site_cache.get(kind)
        if sites is None:
            sites = scan(self.function)
            self._site_cache[kind] = sites
        return sites


class MutantOverlay:
    """Per-mutant view that answers analysis queries with fallback.

    Dominance queries translate the mutant's blocks to the original's via
    names and use the original tree while the CFG is clean; once
    ``invalidate_cfg()`` has been called, a mutant-level tree is computed
    lazily and used instead.  Instruction-level ordering inside a block is
    always read from the mutant (it is cheap and always current).
    """

    def __init__(self, mutant: Function, original: OriginalFunctionInfo) -> None:
        self.mutant = mutant
        self.original = original
        self._cfg_dirty = False
        self._mutant_domtree: Optional[DominatorTree] = None
        self._has_callers: Optional[bool] = None
        # Mutant block -> original block, filled lazily; cloning
        # preserves names, so the name lookup runs once per block.
        self._translation: Dict[BasicBlock, Optional[BasicBlock]] = {}
        self._stats = {"original_hits": 0, "mutant_computes": 0}
        # True until the engine records the first applied mutation:
        # a pristine clone shares its original's mutation sites.
        self.pristine = True

    def signature_is_frozen(self) -> bool:
        """May the mutant's signature not change (fresh parameters)?

        Adding a parameter to a function that is called inside the module
        would break every call site, so the dominating-value primitive
        must not do it.  Computed lazily and cached per mutant.
        """
        if self._has_callers is None:
            module = self.mutant.parent
            self._has_callers = False
            if module is not None:
                for function in module.definitions():
                    if function is self.mutant:
                        continue
                    for inst in [inst for block in function.blocks
                                 for inst in block.instructions]:
                        if inst.KIND == "call" and inst.callee is self.mutant:
                            self._has_callers = True
                            break
                    if self._has_callers:
                        break
        return self._has_callers

    # -- mutation-site enumeration -------------------------------------------

    def enumerate_sites(self, kind: str,
                        scan: Callable[[Function], List[tuple]]) -> List:
        """Mutation sites of ``kind`` resolved against the mutant.

        ``scan(function)`` returns positional descriptors — ``(block
        index, instruction index)`` tuples, optionally with trailing
        extras.  While the mutant is pristine (no operator has changed
        it yet) the descriptors are computed once per *original*
        function and shared by all of its mutants; after the first
        mutation they are recomputed live.  Resolution preserves the
        scan order, so cached and live enumeration present candidates
        identically (same RNG draws either way).
        """
        if self.pristine:
            descriptors = self.original.cached_sites(kind, scan)
        else:
            descriptors = scan(self.mutant)
        blocks = self.mutant.blocks
        sites: List = []
        for descriptor in descriptors:
            inst = blocks[descriptor[0]].instructions[descriptor[1]]
            if len(descriptor) > 2:
                sites.append((inst, *descriptor[2:]))
            else:
                sites.append(inst)
        return sites

    # -- invalidation --------------------------------------------------------

    def invalidate_cfg(self) -> None:
        """Call after any mutation that adds/removes blocks or edges."""
        self._cfg_dirty = True
        self._mutant_domtree = None

    def invalidate_positions(self) -> None:
        """Call after reordering instructions inside a block.

        Instruction positions are always read live from the mutant, so
        nothing is cached to drop; the hook exists for symmetry and for the
        ablation bench to count invalidations.
        """

    @property
    def stats(self) -> Dict[str, int]:
        return dict(self._stats)

    # -- dominance ------------------------------------------------------------

    def _domtree_for_mutant(self) -> DominatorTree:
        if self._mutant_domtree is None:
            self._mutant_domtree = DominatorTree(self.mutant)
            self._stats["mutant_computes"] += 1
        return self._mutant_domtree

    def _translate(self, block: BasicBlock) -> Optional[BasicBlock]:
        # Keyed by the block itself, not its id(): a block a mutation
        # erased could otherwise lend its id to a fresh one.
        cached = self._translation.get(block, _MISSING)
        if cached is not _MISSING:
            return cached
        if block.parent is self.original.function:
            resolved: Optional[BasicBlock] = block
        else:
            resolved = self.original.blocks_by_name.get(block.name)
        self._translation[block] = resolved
        return resolved

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        if self._cfg_dirty:
            return self._domtree_for_mutant().dominates_block(a, b)
        original_a = self._translate(a)
        original_b = self._translate(b)
        if original_a is None or original_b is None:
            # A freshly-created block: fall through to mutant level.
            return self._domtree_for_mutant().dominates_block(a, b)
        self._stats["original_hits"] += 1
        return self.original.domtree.dominates_block(original_a, original_b)

    def strictly_dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        return a is not b and self.dominates_block(a, b)

    def dominates(self, definition: Value, point_block: BasicBlock,
                  point_index: int) -> bool:
        """Is ``definition`` available at slot ``point_index`` of the block?

        Block-level dominance goes through the two-level lookup;
        same-block ordering is read live from the mutant.
        """
        if definition.IS_CONSTANT or definition.KIND == "argument":
            return True
        if not definition.IS_INSTRUCTION:
            return False
        def_block = definition.parent
        if def_block is None:
            return False
        if def_block is point_block:
            return def_block.index_of(definition) < point_index
        return self.strictly_dominates_block(def_block, point_block)

    # -- values available at a program point -----------------------------------

    def dominating_values_at(self, block: BasicBlock, index: int,
                             type=None) -> List[Value]:
        """SSA values usable as operands at (block, index), oldest first.

        Includes function arguments and results of dominating instructions;
        optionally filtered by type.
        """
        values: List[Value] = []
        for argument in self.mutant.arguments:
            if type is None or argument.type is type:
                values.append(argument)
        for candidate_block in self.mutant.blocks:
            if candidate_block is block:
                for inst in candidate_block.instructions[:index]:
                    if inst.type.IS_FIRST_CLASS and (
                            type is None or inst.type is type):
                        values.append(inst)
            elif self.strictly_dominates_block(candidate_block, block):
                for inst in candidate_block.instructions:
                    if inst.type.IS_FIRST_CLASS and (
                            type is None or inst.type is type):
                        values.append(inst)
        return values

    # -- pass-through original-level info ----------------------------------------

    @property
    def constant_pool(self) -> ConstantPool:
        return self.original.constant_pool

    @property
    def shuffle_ranges(self) -> List[ShuffleRange]:
        return self.original.shuffle_ranges

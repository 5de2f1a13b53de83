"""The one-walk IR code against the code it replaced.

Cloning, fingerprinting, the dominator tree and fresh-name allocation
each used to take several walks or to scan the whole function per call.
The old implementations live on here, verbatim, as references.  Over the
generated corpus, the 40-block dataflow-local function, hand-made
modules with operand bundles, calls and forward references, and mutants
from every mutation operator:

- a clone prints the same and gives every value the same use list
  (users compared by position, in order) as the old clone;
- ``_canonical_tokens`` returns the same token list, so every
  fingerprint is bit-identical, and ``referenced_functions`` finds the
  same functions;
- the dominator tree answers ``immediate_dominator``, ``dominates_block``,
  ``children``, ``dominance_depth`` and ``blocks_in_rpo`` the same;
- ``next_temp_name`` hands out the same names as a scan on every call,
  through builder inserts, erasures and explicitly named inserts.
"""

import hashlib
from typing import Dict, List, Optional

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analysis import DominatorTree
from repro.ir.cfg import predecessor_map, reverse_postorder
from repro.fuzz import generate_corpus
from repro.ir import (BasicBlock, Function, IRBuilder, Module, parse_module,
                      print_module)
from repro.ir.fingerprint import (_canonical_tokens, referenced_functions,
                                  fingerprint_function)
from repro.ir.instructions import (AllocaInst, BinaryOperator, BrInst,
                                   CallInst, CastInst, FreezeInst, GEPInst,
                                   ICmpInst, Instruction, LoadInst,
                                   OperandBundle, PhiNode, RetInst,
                                   SelectInst, StoreInst, SwitchInst,
                                   UnreachableInst)
from repro.ir.module import clone_functions_into
from repro.ir.types import I32
from repro.ir.values import (Argument, ConstantInt, ConstantPointerNull,
                             PoisonValue, UndefValue, Value)
from repro.mutate import Mutator, MutatorConfig
from repro.mutate.mutations import MUTATIONS
from repro.opt import OptContext, PassManager

from helpers import block_function

# -- the references: the old walks, verbatim ----------------------------------


def reference_instruction_clone(inst: Instruction) -> Instruction:
    """The per-class ``Instruction.clone`` methods: a constructor call
    over the same operands (calls, phis, branches and switches never
    reached them; the old clone built those itself)."""
    if isinstance(inst, BinaryOperator):
        return BinaryOperator(inst.opcode, inst.lhs, inst.rhs, "",
                              nuw=inst.nuw, nsw=inst.nsw, exact=inst.exact)
    if isinstance(inst, ICmpInst):
        return ICmpInst(inst.predicate, inst.lhs, inst.rhs)
    if isinstance(inst, SelectInst):
        return SelectInst(inst.condition, inst.true_value, inst.false_value)
    if isinstance(inst, CastInst):
        return CastInst(inst.opcode, inst.value, inst.type)
    if isinstance(inst, FreezeInst):
        return FreezeInst(inst.value)
    if isinstance(inst, AllocaInst):
        return AllocaInst(inst.allocated_type, "", inst.align)
    if isinstance(inst, LoadInst):
        return LoadInst(inst.type, inst.pointer, "", inst.align)
    if isinstance(inst, StoreInst):
        return StoreInst(inst.value, inst.pointer, inst.align)
    if isinstance(inst, GEPInst):
        return GEPInst(inst.source_type, inst.pointer, inst.indices, "",
                       inbounds=inst.inbounds)
    if isinstance(inst, RetInst):
        return RetInst(inst.return_value)
    if isinstance(inst, UnreachableInst):
        return UnreachableInst()
    raise NotImplementedError(inst.opcode)


def reference_module_clone(module: Module, mutable_only=None) -> Module:
    cloned = Module(module.name)
    value_map: Dict[int, Value] = {}

    # Create all function shells first so calls can be remapped.
    copied: List[Function] = []
    for function in module.functions():
        if mutable_only is not None and (
                function.is_declaration()
                or function.name not in mutable_only):
            cloned.adopt_shared(function)
            continue
        shell = Function(function.function_type, function.name, cloned,
                         arg_names=[a.name for a in function.arguments])
        shell.attributes = function.attributes.copy()
        for old_arg, new_arg in zip(function.arguments, shell.arguments):
            new_arg.attributes = old_arg.attributes.copy()
            value_map[id(old_arg)] = new_arg
        value_map[id(function)] = shell
        copied.append(function)

    for function in copied:
        if function.is_declaration():
            continue
        _reference_clone_function_body(function, value_map[id(function)],
                                       value_map)
    return cloned


def reference_clone_functions_into(sources: Dict[str, Function],
                                   dest: Module) -> Dict[str, Function]:
    shells: Dict[str, Function] = {}
    arg_maps: Dict[str, Dict[int, Value]] = {}
    for name, function in sources.items():
        shell = Function(function.function_type, name, dest,
                         arg_names=[a.name for a in function.arguments])
        shell.attributes = function.attributes.copy()
        arg_map: Dict[int, Value] = {id(function): shell}
        for old_arg, new_arg in zip(function.arguments, shell.arguments):
            new_arg.attributes = old_arg.attributes.copy()
            arg_map[id(old_arg)] = new_arg
        shells[name] = shell
        arg_maps[name] = arg_map

    def resolve_function(function: Function) -> Function:
        existing = dest.get_function(function.name)
        if existing is not None:
            return existing
        declaration = Function(
            function.function_type, function.name, dest,
            arg_names=[a.name for a in function.arguments])
        declaration.attributes = function.attributes.copy()
        for old_arg, new_arg in zip(function.arguments,
                                    declaration.arguments):
            new_arg.attributes = old_arg.attributes.copy()
        return declaration

    for name, function in sources.items():
        if function.is_declaration():
            continue
        _reference_clone_function_body(function, shells[name], arg_maps[name],
                                       resolve_function)
    return shells


def _reference_clone_function_body(source: Function, dest: Function,
                                   value_map: Dict[int, Value],
                                   resolve_function=None) -> None:
    for block in source.blocks:
        new_block = BasicBlock(block.name, dest)
        value_map[id(block)] = new_block

    def remap(value: Value) -> Value:
        mapped = value_map.get(id(value))
        if mapped is not None:
            return mapped
        if resolve_function is not None and isinstance(value, Function):
            return resolve_function(value)
        return value

    cloned_instructions = []
    for block in source.blocks:
        new_block = value_map[id(block)]
        for inst in block.instructions:
            new_inst = _reference_clone_instruction(inst, remap)
            new_inst.name = inst.name
            new_block.append(new_inst)
            value_map[id(inst)] = new_inst
            cloned_instructions.append(new_inst)

    for inst in cloned_instructions:
        for index, operand in enumerate(inst.operands):
            replacement = remap(operand)
            if replacement is not operand:
                inst.set_operand(index, replacement)
        if isinstance(inst, CallInst):
            inst.callee = remap(inst.callee)


def _reference_clone_instruction(inst: Instruction, remap) -> Instruction:
    if isinstance(inst, CallInst):
        cloned = CallInst(remap(inst.callee), [remap(a) for a in inst.args])
        for bundle in inst.bundles:
            cloned.add_bundle(OperandBundle(
                bundle.tag, [remap(v) for v in inst.bundle_operands(bundle)]))
        cloned.attributes = inst.attributes.copy()
        return cloned
    if isinstance(inst, PhiNode):
        cloned = PhiNode(inst.type)
        for value, block in inst.incoming():
            cloned.add_incoming(remap(value), remap(block))
        return cloned
    if isinstance(inst, BrInst):
        if inst.is_conditional():
            return BrInst(remap(inst.operands[0]), remap(inst.operands[1]),
                          remap(inst.operands[2]))
        return BrInst(remap(inst.operands[0]))
    if isinstance(inst, SwitchInst):
        return SwitchInst(remap(inst.value), remap(inst.default),
                          [(remap(v), remap(b)) for v, b in inst.cases()])
    cloned = reference_instruction_clone(inst)
    for index, operand in enumerate(cloned.operands):
        replacement = remap(operand)
        if replacement is not operand:
            cloned.set_operand(index, replacement)
    return cloned


def _reference_encode_operand(value: Value, ids: Dict[int, str]) -> str:
    label = ids.get(id(value))
    if label is not None:
        return label
    if isinstance(value, ConstantInt):
        return f"ci{value.type.width}:{value.value}"
    if isinstance(value, UndefValue):
        return f"undef:{value.type}"
    if isinstance(value, PoisonValue):
        return f"poison:{value.type}"
    if isinstance(value, ConstantPointerNull):
        return "null"
    if isinstance(value, Function):
        return f"fn:{value.name}"
    kind = type(value).__name__
    return f"?{kind}:{value.type}:{value.name}"


def _reference_instruction_payload(inst) -> str:
    if isinstance(inst, ICmpInst):
        return inst.predicate
    if isinstance(inst, AllocaInst):
        return f"{inst.allocated_type}@{inst.align}"
    if isinstance(inst, (LoadInst, StoreInst)):
        return f"@{inst.align}"
    if isinstance(inst, GEPInst):
        return str(inst.source_type)
    if isinstance(inst, CallInst):
        bundles = ",".join(
            f"{bundle.tag}:{len(bundle.inputs)}" for bundle in inst.bundles)
        return (f"nargs={len(inst.args)};bundles={bundles};"
                f"attrs={inst.attributes}")
    return ""


def reference_canonical_tokens(function: Function) -> List[str]:
    ids: Dict[int, str] = {id(function): "self"}
    for index, argument in enumerate(function.arguments):
        ids[id(argument)] = f"A{index}"
    next_value = 0
    for index, block in enumerate(function.blocks):
        ids[id(block)] = f"B{index}"
        for inst in block.instructions:
            ids[id(inst)] = f"V{next_value}"
            next_value += 1

    signature = function.function_type
    params = ",".join(str(t) for t in signature.param_types)
    vararg = "..." if signature.is_vararg else ""
    tokens = [f"sig:{signature.return_type}({params}{vararg})",
              f"fattrs:{function.attributes}"]
    for index, argument in enumerate(function.arguments):
        attrs = str(argument.attributes)
        if attrs:
            tokens.append(f"aattrs{index}:{attrs}")

    type_strs: Dict[int, str] = {}
    operand_strs: Dict[int, str] = {}
    ids_get = ids.get
    append = tokens.append
    for block in function.blocks:
        append(f"block:{ids[id(block)]}")
        for inst in block.instructions:
            parts = []
            for operand in inst.operands:
                key = id(operand)
                label = ids_get(key)
                if label is None:
                    label = operand_strs.get(key)
                    if label is None:
                        label = _reference_encode_operand(operand, ids)
                        operand_strs[key] = label
                parts.append(label)
            payload = _reference_instruction_payload(inst)
            if isinstance(inst, CallInst):
                payload = (f"{_reference_encode_operand(inst.callee, ids)};"
                           f"{payload}")
            type_key = id(inst.type)
            type_str = type_strs.get(type_key)
            if type_str is None:
                type_str = type_strs[type_key] = str(inst.type)
            append(f"{ids[id(inst)]}={inst.opcode}:{type_str}:"
                   f"{inst.flags_repr()}:{payload}({','.join(parts)})")
    return tokens


def reference_referenced_functions(function: Function) -> List[Function]:
    seen: Dict[int, Function] = {}
    for inst in function.instructions():
        candidates = list(inst.operands)
        if isinstance(inst, CallInst):
            candidates.append(inst.callee)
        for value in candidates:
            if isinstance(value, Function) and id(value) not in seen:
                seen[id(value)] = value
    return list(seen.values())


class ReferenceDominatorTree:
    def __init__(self, function: Function) -> None:
        self.function = function
        self._idom: Dict[int, Optional[BasicBlock]] = {}
        self._rpo_index: Dict[int, int] = {}
        self._blocks: List[BasicBlock] = []
        self._compute()

    def _compute(self) -> None:
        order = reverse_postorder(self.function)
        self._blocks = order
        self._rpo_index = {id(block): i for i, block in enumerate(order)}
        if not order:
            return
        preds = predecessor_map(self.function)
        entry = order[0]
        idom: Dict[int, BasicBlock] = {id(entry): entry}
        changed = True
        while changed:
            changed = False
            for block in order[1:]:
                new_idom: Optional[BasicBlock] = None
                for pred in preds[id(block)]:
                    if id(pred) not in self._rpo_index:
                        continue  # unreachable predecessor
                    if id(pred) not in idom:
                        continue  # not processed yet this round
                    if new_idom is None:
                        new_idom = pred
                    else:
                        new_idom = self._intersect(pred, new_idom, idom)
                if new_idom is not None and idom.get(id(block)) is not new_idom:
                    idom[id(block)] = new_idom
                    changed = True
        self._idom = {}
        for block in order:
            if block is entry:
                self._idom[id(block)] = None
            else:
                self._idom[id(block)] = idom.get(id(block))

    def _intersect(self, a: BasicBlock, b: BasicBlock,
                   idom: Dict[int, BasicBlock]) -> BasicBlock:
        index = self._rpo_index
        while a is not b:
            while index[id(a)] > index[id(b)]:
                a = idom[id(a)]
            while index[id(b)] > index[id(a)]:
                b = idom[id(b)]
        return a

    def is_reachable(self, block: BasicBlock) -> bool:
        return id(block) in self._rpo_index

    def immediate_dominator(self, block: BasicBlock) -> Optional[BasicBlock]:
        return self._idom.get(id(block))

    def dominates_block(self, a: BasicBlock, b: BasicBlock) -> bool:
        if not self.is_reachable(a) or not self.is_reachable(b):
            return False
        runner: Optional[BasicBlock] = b
        while runner is not None:
            if runner is a:
                return True
            runner = self._idom.get(id(runner))
        return False

    def children(self, block: BasicBlock) -> List[BasicBlock]:
        return [b for b in self._blocks
                if self._idom.get(id(b)) is block]

    def dominance_depth(self, block: BasicBlock) -> int:
        depth = 0
        runner = self._idom.get(id(block))
        while runner is not None:
            depth += 1
            runner = self._idom.get(id(runner))
        return depth

    def blocks_in_rpo(self) -> List[BasicBlock]:
        return list(self._blocks)


def reference_next_temp_name(function: Function):
    """The old scan, on a copy of the counter: (name, counter after)."""
    taken = {arg.name for arg in function.arguments}
    for block in function.blocks:
        taken.add(block.name)
        for inst in block.instructions:
            taken.add(inst.name)
    counter = function._next_temp
    while True:
        candidate = str(counter)
        counter += 1
        if candidate not in taken:
            return candidate, counter


# -- inputs -------------------------------------------------------------------

# Bundles, a call passing a function, a phi back-edge, a bundle and a
# select naming values the layout defines later, a switch, memory ops.
FORWARD = """
declare void @llvm.assume(i1)
declare void @sink(ptr, i32)

define i32 @callee(i32 %a) {
  %r = add nsw i32 %a, 1
  ret i32 %r
}

define i32 @f(i32 %n, ptr %p, i1 %c) {
entry:
  %slot = alloca i32, align 4
  store i32 %n, ptr %slot, align 4
  br label %header

use:
  call void @llvm.assume(i1 true) [ "align"(ptr %p, i32 %late), "nonnull"(ptr %p) ]
  %s = select i1 %c, i32 %late, i32 %i
  %g = getelementptr inbounds i32, ptr %p, i32 %s
  call void @sink(ptr @callee, i32 %s)
  call void @sink(ptr %g, i32 %late)
  switch i32 %s, label %exit [ i32 0, label %header
                               i32 7, label %exit ]

header:
  %i = phi i32 [ 0, %entry ], [ %next, %body ], [ %s, %use ]
  %done = icmp uge i32 %i, %n
  br i1 %done, label %exit, label %body

body:
  %loaded = load i32, ptr %slot, align 4
  %next = call i32 @callee(i32 %loaded)
  %late = xor i32 %next, -1
  %cond = icmp eq i32 %late, %i
  br i1 %cond, label %use, label %header

exit:
  %r = phi i32 [ %i, %header ], [ %s, %use ]
  %frozen = freeze i32 %r
  ret i32 %frozen
}
"""

CORPUS = generate_corpus(48, 0)
SOURCES = ([(name, parse_module(text)) for name, text in CORPUS]
           + [("blocks", parse_module(block_function())),
              ("forward", parse_module(FORWARD))])


def mutants(operator: str, count: int = 6) -> List[Module]:
    """Mutants from ``operator`` alone over every eighth corpus file and
    the hand-made modules."""
    out = []
    config = MutatorConfig(enabled_mutations=[operator], max_mutations=3)
    for _name, module in SOURCES[::8] + SOURCES[-2:]:
        mutator = Mutator(module, config)
        out.extend(mutator.create_mutant(seed)[0] for seed in range(count))
    return out


def optimized(module: Module) -> Module:
    result = module.clone()
    for function in result.definitions():
        PassManager(["O2"]).run_function(function, OptContext(()))
    return result


# -- clone --------------------------------------------------------------------


def use_lists(module: Module):
    """Every argument's, block's and instruction's users, by position."""
    position = {}
    for function in module.functions():
        for index, argument in enumerate(function.arguments):
            position[argument] = (function.name, "A", index)
        for b, block in enumerate(function.blocks):
            position[block] = (function.name, "B", b)
            for i, inst in enumerate(block.instructions):
                position[inst] = (function.name, "V", b, i)
    lists = {}
    for value, where in position.items():
        for use in value.uses:
            assert use.user.operands[use.index] is value
        lists[where] = [(position.get(use.user, "outside"), use.index)
                        for use in value.uses]
    return lists


def assert_same_clone(got: Module, want: Module) -> None:
    assert print_module(got) == print_module(want)
    assert use_lists(got) == use_lists(want)


def check_clones(module: Module) -> None:
    assert_same_clone(module.clone(), reference_module_clone(module))
    definitions = [f.name for f in module.definitions()]
    for mutable in (set(), set(definitions[:1])):
        assert_same_clone(module.clone(mutable_only=mutable),
                          reference_module_clone(module, mutable))
    # Splice every definition plus a renamed twin of the first into a
    # module holding nothing: callees resolve by name, declarations are
    # created on first reference.
    sources = {f.name: f for f in module.definitions()}
    if definitions:
        sources[definitions[0] + ".twin"] = sources[definitions[0]]
    got, want = Module("dest"), Module("dest")
    clone_functions_into(sources, got)
    reference_clone_functions_into(sources, want)
    assert_same_clone(got, want)


@pytest.mark.parametrize("index", range(len(SOURCES)),
                         ids=[name for name, _ in SOURCES])
def test_clone_matches_reference(index):
    module = SOURCES[index][1]
    check_clones(module)
    check_clones(optimized(module))


@pytest.mark.parametrize("operator", sorted(MUTATIONS))
def test_clone_of_mutants_matches_reference(operator):
    for mutant in mutants(operator):
        check_clones(mutant)


def test_instruction_clone_matches_constructor_copy():
    seen = set()
    for _name, module in SOURCES:
        for function in module.definitions():
            for inst in function.instructions():
                if isinstance(inst, (CallInst, PhiNode, BrInst, SwitchInst)):
                    copy = inst.clone()
                    assert copy.operands == inst.operands
                    continue
                copy, want = inst.clone(), reference_instruction_clone(inst)
                assert type(copy) is type(want)
                assert copy.operands == want.operands
                assert payload_of(copy) == payload_of(want)
                seen.add(type(inst).__name__)
    assert {"BinaryOperator", "ICmpInst", "LoadInst", "StoreInst",
            "AllocaInst", "GEPInst", "RetInst"} <= seen


def payload_of(inst: Instruction) -> str:
    """Everything but the operands, as the old fingerprint spelled it."""
    return (f"{inst.opcode}:{inst.type}:{inst.flags_repr()}:"
            f"{_reference_instruction_payload(inst)}")


# -- fingerprint --------------------------------------------------------------


def check_fingerprints(module: Module) -> None:
    for function in module.definitions():
        want = reference_canonical_tokens(function)
        assert _canonical_tokens(function) == want
        hasher = hashlib.blake2b(digest_size=16)
        hasher.update("\n".join(want).encode("utf-8"))
        assert fingerprint_function(function) == hasher.hexdigest()
        others = [fn for fn in reference_referenced_functions(function)
                  if fn is not function]
        assert referenced_functions(function) == others


@pytest.mark.parametrize("index", range(len(SOURCES)),
                         ids=[name for name, _ in SOURCES])
def test_tokens_match_reference(index):
    module = SOURCES[index][1]
    check_fingerprints(module)
    check_fingerprints(optimized(module))


@pytest.mark.parametrize("operator", sorted(MUTATIONS))
def test_tokens_of_mutants_match_reference(operator):
    for mutant in mutants(operator):
        check_fingerprints(mutant)
        check_fingerprints(optimized(mutant))


def test_forward_references_are_numbered_by_layout():
    function = SOURCES[-1][1].get_function("f")
    tokens = _canonical_tokens(function)
    assert tokens == reference_canonical_tokens(function)
    by_label = {token.split("=")[0]: token for token in tokens if "=" in token}
    # @llvm.assume (V3) names %late (V14) and the header's phi (V9)
    # names %next (V13) before the walk reaches them.
    assert by_label["V3"].endswith("(ci1:1,A1,V14,A1)")
    assert by_label["V9"].endswith("(ci32:0,B0,V13,B3,V4,B1)")


# -- dominator tree -----------------------------------------------------------


def check_domtree(function: Function) -> None:
    tree, want = DominatorTree(function), ReferenceDominatorTree(function)
    assert tree.blocks_in_rpo() == want.blocks_in_rpo()
    for a in function.blocks:
        assert tree.is_reachable(a) == want.is_reachable(a)
        assert tree.immediate_dominator(a) is want.immediate_dominator(a)
        assert tree.children(a) == want.children(a)
        assert tree.dominance_depth(a) == want.dominance_depth(a)
        for b in function.blocks:
            assert tree.dominates_block(a, b) == want.dominates_block(a, b)


@pytest.mark.parametrize("index", range(len(SOURCES)),
                         ids=[name for name, _ in SOURCES])
def test_domtree_matches_reference(index):
    for function in SOURCES[index][1].definitions():
        check_domtree(function)


@pytest.mark.parametrize("operator", sorted(MUTATIONS))
def test_domtree_of_mutants_matches_reference(operator):
    for mutant in mutants(operator):
        for function in mutant.definitions():
            check_domtree(function)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 15),
                          st.integers(0, 15)), min_size=1, max_size=16))
# A diamond whose join is reached first through the arm visited last.
@example([(2, 1, 2), (1, 3, 0), (1, 3, 0), (0, 0, 0)])
# Two loops sharing a latch, entered from either arm of a branch.
@example([(2, 1, 2), (1, 3, 0), (1, 4, 0), (2, 4, 5), (2, 3, 5),
          (0, 0, 0)])
def test_domtree_matches_reference_on_random_cfgs(shape):
    """Blocks ending in ret / br / condbr to arbitrary blocks: loops,
    irreducible regions and unreachable blocks included."""
    blocks = len(shape)
    lines = ["define void @f(i1 %c) {"]
    for index, (kind, first, second) in enumerate(shape):
        lines.append(f"b{index}:")
        if kind == 0:
            lines.append("  ret void")
        elif kind == 1:
            lines.append(f"  br label %b{first % blocks}")
        else:
            lines.append(f"  br i1 %c, label %b{first % blocks}, "
                         f"label %b{second % blocks}")
    lines.append("}")
    check_domtree(parse_module("\n".join(lines)).get_function("f"))


# -- fresh names --------------------------------------------------------------

NAMES = st.sampled_from(["1", "3", "4", "5", "6", "7", "9", "x", "b1"])
WHERE = st.tuples(st.integers(0, 7), st.booleans())  # block, append?
STEPS = st.lists(st.one_of(
    st.tuples(st.just("insert"), WHERE),
    st.tuples(st.just("named"), WHERE, NAMES),
    st.tuples(st.just("erase"), st.integers(0, 63)),
    st.tuples(st.just("block"), NAMES, NAMES),
    st.tuples(st.just("argument"), NAMES),
    st.tuples(st.just("fresh"),),
), min_size=1, max_size=40)

FRESH = ("fresh",)
# Each way a name can join the function after the first fresh name was
# handed out, then reached by the counter (the first free one is "4").
PLACED = [
    [FRESH, ("named", (0, False), "5"), FRESH, FRESH],
    [FRESH, ("named", (1, True), "5"), FRESH, FRESH],
    [FRESH, ("block", "x", "5"), FRESH, FRESH],
    [FRESH, ("block", "5", "x"), FRESH, FRESH],
    [FRESH, ("argument", "5"), FRESH, FRESH],
    # "6" is erased before the counter reaches it: a stale entry.
    [("named", (0, False), "6"), FRESH, ("erase", 0), FRESH, FRESH, FRESH],
]


def fresh_name_checked(function: Function, make) -> Value:
    """Run ``make`` (which calls next_temp_name once) and check the name
    it got and the counter it left against the old scan."""
    want, counter = reference_next_temp_name(function)
    value = make()
    assert value.name == want
    assert function._next_temp == counter
    return value


def builder_at(function: Function, where) -> IRBuilder:
    block_index, at_end = where
    block = function.blocks[block_index % len(function.blocks)]
    builder = IRBuilder()
    builder.set_insert_point(
        block, None if at_end else block.first_non_phi_index())
    return builder


def run_name_steps(steps) -> None:
    function = parse_module("""
define i32 @f(i32 %0, i32 %x) {
1:
  %2 = add i32 %0, 1
  br label %b1
b1:
  %3 = add i32 %2, %x
  ret i32 %3
}
""").get_function("f")
    first = function.arguments[0]
    for step in steps:
        kind = step[0]
        if kind == "insert":
            builder = builder_at(function, step[1])
            fresh_name_checked(
                function, lambda: builder.add(first, ConstantInt(I32, 1)))
        elif kind == "named":
            builder_at(function, step[1]).add(first, ConstantInt(I32, 2),
                                              name=step[2])
        elif kind == "erase":
            candidates = [inst for inst in function.instructions()
                          if not inst.IS_TERMINATOR]
            if candidates:
                victim = candidates[step[1] % len(candidates)]
                victim.replace_all_uses_with(first)
                victim.erase_from_parent()
        elif kind == "block":
            detached = BasicBlock(step[1])
            detached.append(BinaryOperator("add", first, ConstantInt(I32, 3),
                                           step[2]))
            detached.append(RetInst(first))
            function.append_block(detached)
        elif kind == "argument":
            function.add_argument(I32, step[1])
        else:
            fresh_name_checked(
                function, lambda: Argument(I32, function.next_temp_name()))


@pytest.mark.parametrize("steps", PLACED)
def test_next_temp_name_sees_every_placed_name(steps):
    run_name_steps(steps)


@settings(max_examples=300, deadline=None)
@given(steps=STEPS)
def test_next_temp_name_matches_scan(steps):
    run_name_steps(steps)

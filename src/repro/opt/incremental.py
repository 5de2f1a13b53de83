"""Incremental re-optimization of mutants (layers 2 and 3 of the fast path).

A mutant differs from its already-optimized source in a small *dirty
region*.  This module supplies the machinery that lets the pass pipeline
exploit that:

* :class:`IncrementalState` — a bounded LRU of per-``(function
  fingerprint, pass)`` **skip memos**: "pass P left fingerprint F
  unchanged, counting these stats and firing these bugs" (or "pass P
  crashed on F").  Fingerprints are structural and name-normalized, and
  every pass is deterministic and name-blind, so an entry recorded at one
  pipeline position is valid at any other.  Replaying the recorded stats
  and bug firings on a skip keeps feedback features and seeded-bug
  attribution bit-identical to a full run.
* :class:`IncrementalRun` — the per-function dispatch state threaded
  through :meth:`PassManager.run_function`: the current fingerprint
  (recomputed lazily, only after a pass changed the body), the shared
  dirty set, and the set of passes *proven* to be at fixpoint on the
  dirty set's complement.  A pass that is proven and worklist-capable
  visits only the dirty region; everything else full-runs.
* :class:`ScanPass` / :class:`SweepState` — the one sweep loop of the
  scan passes (constfold / instsimplify / instcombine) and its
  bookkeeping.  Every sweep walks the function's blocks in program
  order, visiting only worklist members, and every rewrite grows the
  worklist with the affected closure (operands, pre-rewrite users,
  freshly built instructions, and their transitive users — transitive
  because known-bits reasoning reaches arbitrarily deep cones).  The
  first worklist is the whole function or a mutation's dirty closure.
  Because the traversal arrives at blocks in the same order and with
  the same per-block snapshots as a sweep over everything, it fires the
  same rewrites in the same order as re-sweeping everything until
  nothing changes would.

Soundness of the worklist skip rests on the proven-fixpoint invariant:
an instruction outside the dirty closure has the cone and use counts it
had when the pass was last proven quiescent on it (by the source's run
for a mutation-seeded worklist, by this run's own earlier visit for a
later sweep), and every mutation
or rewrite that changes a cone or a use count adds the affected users
(for cone changes) or the operand's users (for use-count changes) to the
dirty set.  Rule matching is a function of cone shape plus use counts,
so unvisited instructions cannot fire — visiting them would only confirm
quiescence, which is exactly what the skip assumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (Dict, FrozenSet, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from ..analysis.knownbits import KnownBitsMemo
from ..ir.fingerprint import fingerprint_function
from ..ir.function import Function
from ..ir.instructions import Instruction
from ..tv.compile import LRUCache
from .context import OptContext, OptimizerCrash
from .pass_manager import FunctionPass

DEFAULT_MEMO_SIZE = 4096


@dataclass(frozen=True)
class PassMemoEntry:
    """One recorded no-change (or crash) outcome of a pass on a fingerprint.

    ``stats`` is the delta the pass added to ``ctx.stats`` and ``bugs``
    the bug ids it fired — both replayed verbatim on a skip.  A crash
    entry re-raises an equivalent :class:`OptimizerCrash`; changed
    outcomes are never memoized (there is no body to replay).
    """

    stats: Tuple[Tuple[str, int], ...]
    bugs: FrozenSet[str]
    crash_bug: Optional[str] = None
    crash_message: str = ""


def _stat_delta(before: Dict[str, int],
                after: Dict[str, int]) -> Tuple[Tuple[str, int], ...]:
    return tuple(sorted(
        (name, amount - before.get(name, 0))
        for name, amount in after.items()
        if amount != before.get(name, 0)))


class IncrementalState:
    """Driver-lifetime skip-memo store plus ``opt.incremental.*`` counters."""

    def __init__(self, capacity: int = DEFAULT_MEMO_SIZE,
                 metrics=None) -> None:
        self._memo = LRUCache(capacity)
        self.metrics = metrics

    def count(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.count(name, amount)

    def lookup(self, fp: str, pass_name: str) -> Optional[PassMemoEntry]:
        return self._memo.get((fp, pass_name))

    def record(self, fp: str, pass_name: str, entry: PassMemoEntry) -> None:
        self._memo.put((fp, pass_name), entry)
        self.count("opt.incremental.recorded")

    def proven_passes(self, fp: Optional[str],
                      pass_names: Iterable[str]) -> Set[str]:
        """Passes recorded as leaving fingerprint ``fp`` unchanged.

        Used to seed a mutant's proven set from its *source's* baseline
        trajectory: the source and the mutant share every instruction
        outside the mutated region, so a pass quiescent on the whole
        source is quiescent on the mutant's clean complement.
        """
        proven: Set[str] = set()
        if fp is None:
            return proven
        for name in set(pass_names):
            entry = self._memo.get((fp, name))
            if entry is not None and entry.crash_bug is None:
                proven.add(name)
        return proven

    def begin(self, fp: Optional[str] = None,
              dirty: Optional[Set[Instruction]] = None,
              proven: Optional[Set[str]] = None,
              refingerprints: Optional[int] = None) -> "IncrementalRun":
        return IncrementalRun(self, fp=fp, dirty=dirty,
                              proven=proven if proven is not None else set(),
                              refingerprints=refingerprints)


@dataclass
class IncrementalRun:
    """Per-function dispatch state for one pipeline run.

    ``fp`` is the fingerprint of the function's *current* body (None =
    stale, recompute before the next memo probe).  ``dirty`` is the
    shared set of instructions whose cones or use counts may differ from
    the proven state (None = tracking degraded, worklist runs disabled).
    ``proven`` holds the names of passes known quiescent on the dirty
    complement.

    ``refingerprints`` bounds how many times a stale fingerprint is
    recomputed mid-pipeline (None = unlimited).  Each recompute is a
    whole-function walk, and on a fresh mutant the probes it enables
    almost never hit — the mutated body's intermediate forms have not
    been seen before — so the driver caps mutants at one recompute (a
    convergence checkpoint after the first changing pass) while leaving
    baseline and untouched-replay runs unlimited, where fingerprints
    repeat by construction.  Once the budget is spent and ``fp`` goes
    stale the run stops probing and recording; passes still run (and
    worklist-run) exactly as before, so only speed is affected.
    """

    state: IncrementalState
    fp: Optional[str] = None
    dirty: Optional[Set[Instruction]] = None
    proven: Set[str] = field(default_factory=set)
    refingerprints: Optional[int] = None

    def dispatch(self, function_pass, function: Function,
                 ctx: OptContext) -> bool:
        """Run (or skip) one pass over ``function``; mirrors a plain
        ``run_on_function`` call bit-for-bit in IR, stats, and bugs."""
        state = self.state
        name = function_pass.name
        if self.fp is None and self.refingerprints != 0:
            if self.refingerprints is not None:
                self.refingerprints -= 1
            self.fp = fingerprint_function(function)
            state.count("opt.incremental.fingerprints")
        fp_before = self.fp
        if fp_before is not None:
            entry = state.lookup(fp_before, name)
            if entry is not None:
                for stat, amount in entry.stats:
                    ctx.stats[stat] += amount
                ctx.triggered_bugs |= entry.bugs
                if entry.crash_bug is not None:
                    state.count("opt.incremental.memo_crash_skips")
                    raise OptimizerCrash(entry.crash_bug,
                                         entry.crash_message)
                state.count("opt.incremental.memo_skips")
                self.proven.add(name)
                return False
            stats_before = dict(ctx.stats)
            bugs_before = set(ctx.triggered_bugs)
        worklist = (self.dirty is not None and name in self.proven
                    and function_pass.supports_worklist)
        state.count("opt.incremental.worklist_runs" if worklist
                    else "opt.incremental.full_runs")
        try:
            if worklist:
                changed = function_pass.run_on_worklist(function, ctx,
                                                        self.dirty)
            else:
                changed = function_pass.run_on_function(function, ctx)
        except OptimizerCrash as crash:
            if fp_before is not None:
                state.record(fp_before, name, PassMemoEntry(
                    stats=_stat_delta(stats_before, ctx.stats),
                    bugs=frozenset(ctx.triggered_bugs - bugs_before),
                    crash_bug=crash.bug_id, crash_message=crash.message))
            raise
        if changed:
            self.fp = None
            if not worklist:
                # The change may have landed anywhere; worklist tracking
                # can no longer bound the affected region.
                if self.dirty is not None:
                    self.dirty = None
                    state.count("opt.incremental.tracking_lost")
            # A worklist run grew the dirty set in place as it rewrote,
            # so previously proven passes stay proven on the complement.
        else:
            self.proven.add(name)
            if fp_before is not None:
                state.record(fp_before, name, PassMemoEntry(
                    stats=_stat_delta(stats_before, ctx.stats),
                    bugs=frozenset(ctx.triggered_bugs - bugs_before)))
        return changed


def expand_users(seeds: Iterable[Instruction],
                 into: Set[Instruction]) -> Set[Instruction]:
    """Add ``seeds`` and their transitive instruction users to ``into``."""
    stack: List[Instruction] = [seed for seed in seeds
                                if isinstance(seed, Instruction)]
    while stack:
        inst = stack.pop()
        if inst in into:
            continue
        into.add(inst)
        for use in inst.uses:
            user = use.user
            if isinstance(user, Instruction) and user not in into:
                stack.append(user)
    return into


def initial_dirty(function: Function,
                  touched_blocks: Iterable[str]
                  ) -> Optional[Set[Instruction]]:
    """The dirty closure of a mutant whose mutations touched the named
    blocks: every instruction of those blocks plus all transitive users.

    Returns None — degrade to whole-function — when a touched block has
    vanished, is unnamed, or shares its name with another block (the
    name can no longer identify the mutated region).
    """
    blocks_by_name: Dict[str, object] = {}
    for block in function.blocks:
        if block.name:
            if block.name in blocks_by_name:
                return None
            blocks_by_name[block.name] = block
    seeds: List[Instruction] = []
    for name in touched_blocks:
        block = blocks_by_name.get(name)
        if block is None:
            return None
        seeds.extend(block.instructions)
    return expand_users(seeds, set())


class SweepState:
    """Worklist bookkeeping for one scan pass's block-ordered sweeps.

    A run is seeded with a mutation's ``dirty`` closure or, with
    ``dirty`` None, with the whole function: then ``everything`` holds
    for the first sweep, which visits every instruction and builds no
    membership set to do it.

    ``visit`` is this sweep's membership set and ``pending`` the next
    sweep's; every affected instruction goes into both (a rewrite may
    affect an instruction later in the current sweep *and* require a
    revisit on the next one, exactly as a full re-sweep would provide).
    Block membership mirrors instruction membership so the sweep loop
    can skip clean blocks in O(1) while still arriving at newly dirtied
    blocks it has not passed yet.

    ``known_bits`` is the run's known-bits memo; every rewrite empties
    it, so no entry outlives the IR it was computed from.
    """

    def __init__(self, dirty: Optional[Set[Instruction]] = None) -> None:
        self.everything = dirty is None
        self.dirty: Set[Instruction] = set() if dirty is None else dirty
        self.visit: Set[Instruction] = set()
        self.visit_blocks: Set[int] = set()
        for inst in self.dirty:
            parent = inst.parent
            if parent is not None:
                self.visit.add(inst)
                self.visit_blocks.add(id(parent))
        self.pending: Set[Instruction] = set()
        self.pending_blocks: Set[int] = set()
        self.known_bits = KnownBitsMemo()
        self.visits = 0

    def note_affected(self, seeds: Iterable[Instruction]) -> None:
        """Grow the worklists (and the shared dirty set) with ``seeds``
        and their transitive users."""
        stack = [seed for seed in seeds if isinstance(seed, Instruction)]
        while stack:
            inst = stack.pop()
            if inst in self.pending:
                continue
            self.pending.add(inst)
            self.visit.add(inst)
            self.dirty.add(inst)
            parent = inst.parent
            if parent is not None:
                self.pending_blocks.add(id(parent))
                self.visit_blocks.add(id(parent))
            for use in inst.uses:
                user = use.user
                if isinstance(user, Instruction) and user not in self.pending:
                    stack.append(user)

    def note_rewrite(self, inst: Instruction,
                     new_insts: Sequence[Instruction] = ()) -> None:
        """Record the affected closure of rewriting ``inst``.

        Must be called *before* the pass erases ``inst`` so its pre-RAUW
        users are still reachable.  Seeds: the instruction itself (an
        in-place change needs a revisit), its instruction operands (they
        gain or lose uses), its users (their cones change), any freshly
        built instructions, and those instructions' operands.
        """
        self.known_bits.clear()
        seeds: List[Instruction] = [inst]
        seeds.extend(inst.operands)
        seeds.extend([use.user for use in inst.uses])
        for fresh in new_insts:
            seeds.append(fresh)
            seeds.extend(fresh.operands)
        self.note_affected(seeds)

    def finish_sweep(self) -> None:
        """Promote the next sweep's worklists."""
        self.everything = False
        self.visit = self.pending
        self.visit_blocks = self.pending_blocks
        self.pending = set()
        self.pending_blocks = set()


class ScanPass(FunctionPass):
    """A pass that sweeps the function's blocks in program order until
    nothing changes (constfold / instsimplify / instcombine).

    There is one sweep loop, ``_run``, and two ways of seeding it: the
    whole function, or a mutation's dirty closure.  Either way the first
    sweep visits the seeded instructions and each later one only what
    the rewrites before it affected.  The run's known-bits memo is on
    ``ctx.known_bits`` exactly while the loop runs.
    """

    supports_worklist = True

    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        return self.run_on_worklist(function, ctx, None)

    def run_on_worklist(self, function: Function, ctx: OptContext,
                        dirty: Optional[Set[Instruction]]) -> bool:
        sweep = SweepState(dirty)
        ctx.known_bits = memo = sweep.known_bits
        try:
            return self._run(function, ctx, sweep)
        finally:
            ctx.known_bits = None
            metrics = self.metrics
            if metrics is not None:
                metrics.count("opt.scan.visits", sweep.visits)
                if memo.queries:
                    metrics.count("opt.knownbits.queries", memo.queries)
                    metrics.count("opt.knownbits.memo_hits", memo.hits)

    def _run(self, function: Function, ctx: OptContext,
             sweep: SweepState) -> bool:
        raise NotImplementedError

"""The one sweep loop of the scan passes (constfold / instsimplify /
instcombine) and its bookkeeping.

Every sweep walks the function's blocks in program order.  The first
sweep visits every instruction; each later one visits only the worklist
the rewrites before it built: the affected closure of every rewrite
(operands, pre-rewrite users, freshly built instructions, and their
transitive users — transitive because known-bits reasoning reaches
arbitrarily deep cones).  Because the traversal arrives at blocks in the
same order and with the same per-block snapshots as a sweep over
everything, it fires the same rewrites in the same order as re-sweeping
everything until nothing changes would (``tests/test_scan_differential.py``
checks exactly that against the re-sweep loop).
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Set

from ..analysis.knownbits import KnownBitsMemo
from ..ir.function import Function
from ..ir.instructions import Instruction
from .context import OptContext
from .pass_manager import FunctionPass


class SweepState:
    """Worklist bookkeeping for one scan pass's block-ordered sweeps.

    While ``everything`` holds (the first sweep) every instruction is
    visited and no membership set is built to do it.  ``visit`` is this
    sweep's membership set and ``pending`` the next sweep's; every
    affected instruction goes into both (a rewrite may affect an
    instruction later in the current sweep *and* require a revisit on
    the next one, exactly as a full re-sweep would provide).  Block
    membership mirrors instruction membership so the sweep loop can skip
    clean blocks in O(1) while still arriving at newly affected blocks it
    has not passed yet.

    ``known_bits`` is the run's known-bits memo; every rewrite empties
    it, so no entry outlives the IR it was computed from.
    """

    def __init__(self) -> None:
        self.everything = True
        self.visit: Set[Instruction] = set()
        self.visit_blocks: Set[int] = set()
        self.pending: Set[Instruction] = set()
        self.pending_blocks: Set[int] = set()
        self.known_bits = KnownBitsMemo()
        self.visits = 0

    def note_affected(self, seeds: Iterable[Instruction]) -> None:
        """Grow the worklists with ``seeds`` and their transitive users."""
        stack = [seed for seed in seeds if seed.IS_INSTRUCTION]
        pending = self.pending
        while stack:
            inst = stack.pop()
            if inst in pending:
                continue
            pending.add(inst)
            self.visit.add(inst)
            parent = inst.parent
            if parent is not None:
                self.pending_blocks.add(id(parent))
                self.visit_blocks.add(id(parent))
            for use in inst.uses:
                user = use.user
                if user.IS_INSTRUCTION and user not in pending:
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

    Subclasses implement the sweep loop, ``_run``, over a fresh
    :class:`SweepState`.  The run's known-bits memo is on
    ``ctx.known_bits`` exactly while the loop runs.
    """

    def run_on_function(self, function: Function, ctx: OptContext) -> bool:
        sweep = SweepState()
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

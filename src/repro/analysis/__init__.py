"""Analyses over the IR: overlays, loops, value tracking.

CFG traversal and the dominator tree live in :mod:`repro.ir` (the
verifier's SSA check needs them) and are re-exported here.
"""

from ..ir.cfg import (postorder, predecessor_map, reachable_blocks,
                      reverse_postorder)
from ..ir.domtree import DominatorTree

__all__ = ["postorder", "predecessor_map", "reachable_blocks",
           "reverse_postorder", "DominatorTree"]

"""Input generator for the ``optimize_blocks`` workload.

Each module holds one big function of *dataflow-local* blocks: every
block computes a short chain from the arguments, not from its
predecessor, so a mutation dirties one block and every mutant of the
function is structurally new (no memo can answer it).  That makes the
optimizer, clone and fingerprint layers carry the run, and leaves
translation validation mostly compiling plans it uses once.
"""

from __future__ import annotations

import random
from typing import List, Tuple

__all__ = ["block_module", "block_corpus"]

WIDTHS = (8, 16, 32, 64)
OPS = ("add", "sub", "xor", "and", "or", "mul")


def block_module(rng: random.Random, index: int, blocks: int = 40,
                 ops_per_block: int = 6) -> str:
    """One ``.ll`` module: ``blocks`` blocks of ``ops_per_block`` ops."""
    # Widths follow the index, not the seed: a 64-bit module costs
    # several times an 8-bit one, and the mix must not move with the seed.
    # The cycle shifts by one every four modules so that every fourth
    # module (the ones the count pass profiles) also covers every width.
    width = WIDTHS[(index + index // len(WIDTHS)) % len(WIDTHS)]
    ty = f"i{width}"
    mask = (1 << width) - 1
    lines = [f"define {ty} @blocks_{index}({ty} %x, {ty} %y) {{",
             "entry:", "  br label %b0"]
    incoming: List[str] = []
    for block in range(blocks):
        lines.append(f"b{block}:")
        prev = rng.choice(("%x", "%y"))
        for op_index in range(ops_per_block):
            name = f"%v{block}_{op_index}"
            constant = rng.randrange(1, 256) & mask or 1
            lines.append(f"  {name} = {rng.choice(OPS)} {ty} {prev}, "
                         f"{constant}")
            prev = name
        lines.append(f"  %c{block} = icmp slt {ty} {prev}, "
                     f"{rng.randrange(0, 128) & mask}")
        following = f"b{block + 1}" if block + 1 < blocks else "out"
        if following == "out":
            lines.append("  br label %out")
        else:
            lines.append(f"  br i1 %c{block}, label %{following}, "
                         "label %out")
        incoming.append(f"[ {prev}, %b{block} ]")
    lines += ["out:", f"  %r = phi {ty} " + ", ".join(incoming),
              f"  ret {ty} %r", "}"]
    return "\n".join(lines) + "\n"


def block_corpus(count: int, seed: int) -> List[Tuple[str, str]]:
    """``count`` (file name, text) pairs, deterministic in ``seed``."""
    rng = random.Random(seed)
    return [(f"blocks_{index}.ll", block_module(rng, index))
            for index in range(count)]

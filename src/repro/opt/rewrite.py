"""Opcode-indexed rewrite-rule dispatch.

Historically every pattern-based pass tried its whole rule library against
every instruction on every sweep.  A :class:`RewriteRule` declares, next to
the match function, the *root opcodes* the rule can possibly fire on — the
opcode of the instruction the pattern is anchored at, never the opcodes of
operands it looks through.  A :class:`RuleIndex` buckets the library by
root opcode so a sweep consults only the rules that can match the
instruction in hand.

Indexing is behavior-preserving by construction: within one opcode bucket
the rules keep their global registration order, so the first-match-wins
scan over ``rules_for(inst.opcode)`` fires exactly the rule the full
linear scan would have fired.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, Optional, Sequence, Tuple

from ..ir.instructions import Instruction
from ..ir.values import Value

# A rule inspects one instruction and either returns a replacement Value,
# or performs an in-place change and returns the instruction itself, or
# returns None when it does not apply.  (The context argument is the
# pass-specific rewrite context, e.g. instcombine's CombineContext.)
RuleFn = Callable[[Instruction, object], Optional[Value]]


@dataclass(frozen=True)
class RewriteRule:
    """One named rewrite with its declared root opcodes."""

    name: str
    fn: RuleFn
    opcodes: FrozenSet[str]


def rule(name: str, fn: RuleFn, *opcodes: str) -> RewriteRule:
    """Terse constructor used by the rule modules' ``RULES`` tables."""
    if not opcodes:
        raise ValueError(f"rule {name!r} declares no root opcodes")
    return RewriteRule(name, fn, frozenset(opcodes))


class RuleIndex:
    """Rules bucketed by root opcode, preserving registration order."""

    def __init__(self, rules: Sequence[RewriteRule]) -> None:
        self.rules: Tuple[RewriteRule, ...] = tuple(rules)
        buckets: Dict[str, list] = {}
        for entry in self.rules:
            for opcode in entry.opcodes:
                buckets.setdefault(opcode, []).append(entry)
        self._buckets: Dict[str, Tuple[RewriteRule, ...]] = {
            opcode: tuple(bucket) for opcode, bucket in buckets.items()
        }
        self._empty: Tuple[RewriteRule, ...] = ()

    def rules_for(self, opcode: str) -> Tuple[RewriteRule, ...]:
        """The rules that can fire on ``opcode``, in registration order."""
        return self._buckets.get(opcode, self._empty)

    def __len__(self) -> int:
        return len(self.rules)

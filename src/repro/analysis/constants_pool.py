"""Literal-constant pool.

During preprocessing (paper §III-A) alive-mutate scans each function for the
literal constants appearing in its code; the arithmetic mutation later draws
replacement values from this pool (plus fresh random values), which keeps
mutants in the numeric neighborhood the original test was probing.
"""

from __future__ import annotations

from typing import Dict, List, Set, Tuple

from ..ir.function import Function


class ConstantPool:
    """All literal integer constants of a function, grouped by bit width."""

    def __init__(self, function: Function) -> None:
        self._by_width: Dict[int, List[int]] = {}
        self._seen: Set[Tuple[int, int]] = set()
        for block in function.blocks:
            for inst in block.instructions:
                for operand in inst.operands:
                    if operand.KIND == "int":
                        self._record(operand.type.width, operand.value)

    def _record(self, width: int, value: int) -> None:
        key = (width, value)
        if key in self._seen:
            return
        self._seen.add(key)
        self._by_width.setdefault(width, []).append(value)

    def values_for_width(self, width: int) -> List[int]:
        """Constants seen at this width, plus narrowable wider constants."""
        result = list(self._by_width.get(width, []))
        mask = (1 << width) - 1
        for other_width, values in self._by_width.items():
            if other_width != width:
                for value in values:
                    truncated = value & mask
                    if truncated not in result:
                        result.append(truncated)
        return result

    def all_values(self) -> List[Tuple[int, int]]:
        """(width, value) pairs in first-seen order."""
        return sorted(self._seen)

    def __len__(self) -> int:
        return len(self._seen)

    def __bool__(self) -> bool:
        return bool(self._seen)

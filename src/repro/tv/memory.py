"""Byte-granular memory model.

Each logical block holds bytes that are either concrete ints in
``[0, 256)``, ``POISON``, or ``UNDEF_BYTE`` (uninitialized).  Integer
loads/stores are little-endian.  Out-of-bounds or null accesses raise
:class:`MemoryFault`, which the interpreter converts to UB.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple, Union

from .domain import POISON as POISON  # re-exported: the byte-level poison marker
from .domain import Pointer


class _UndefByte:
    _instance: "_UndefByte" = None

    def __new__(cls) -> "_UndefByte":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "undef"


UNDEF_BYTE = _UndefByte()

Byte = Union[int, type(POISON), _UndefByte]


class MemoryFault(Exception):
    """An access outside any live block (== immediate UB)."""


class Memory:
    """All memory blocks of one execution."""

    def __init__(self) -> None:
        self._blocks: Dict[str, List[Byte]] = {}

    def reset(self) -> None:
        """Drop every block, returning to the freshly-constructed state.

        Used by :meth:`Interpreter.reset` so one memory arena serves many
        runs instead of allocating a new ``Memory`` per execution.
        """
        self._blocks.clear()

    def add_block(
        self, block_id: str, size: int, initial: Optional[List[int]] = None
    ) -> Pointer:
        if block_id in self._blocks:
            raise ValueError(f"duplicate block {block_id}")
        if initial is not None:
            if len(initial) != size:
                raise ValueError("initial contents size mismatch")
            contents: List[Byte] = list(initial)
        else:
            contents = [UNDEF_BYTE] * size
        self._blocks[block_id] = contents
        return Pointer(block_id, 0)

    def has_block(self, block_id: str) -> bool:
        return block_id in self._blocks

    def block_size(self, block_id: str) -> int:
        return len(self._blocks[block_id])

    def _slot(self, pointer: Pointer, size: int) -> Tuple[List[Byte], int]:
        if pointer.is_null():
            raise MemoryFault("access through null pointer")
        block = self._blocks.get(pointer.block)
        if block is None:
            raise MemoryFault(f"access to dead block {pointer.block}")
        if pointer.offset < 0 or pointer.offset + size > len(block):
            raise MemoryFault(f"out-of-bounds access at {pointer!r} size {size}")
        return block, pointer.offset

    def load_bytes(self, pointer: Pointer, size: int) -> List[Byte]:
        block, offset = self._slot(pointer, size)
        return block[offset:offset + size]

    def store_bytes(self, pointer: Pointer, data: List[Byte]) -> None:
        block, offset = self._slot(pointer, size=len(data))
        block[offset:offset + len(data)] = data

    def fill(self, block_id: str, data: List[int]) -> None:
        """Overwrite a whole block with concrete bytes."""
        block = self._blocks[block_id]
        if len(data) != len(block):
            raise ValueError("fill size mismatch")
        block[:] = list(data)

    def snapshot(self, block_ids) -> Dict[str, Tuple[Byte, ...]]:
        """Immutable copy of selected blocks (for refinement comparison)."""
        return {
            block_id: tuple(self._blocks[block_id])
            for block_id in block_ids
            if block_id in self._blocks
        }

    def observable_digest(self, block_id: str) -> Tuple[Byte, ...]:
        return tuple(self._blocks[block_id])

    def block_ids(self) -> List[str]:
        return list(self._blocks)


def int_to_bytes(value: int, size: int) -> List[int]:
    return [(value >> (8 * i)) & 0xFF for i in range(size)]


def bytes_to_int(data: List[int]) -> int:
    value = 0
    for i, byte in enumerate(data):
        value |= byte << (8 * i)
    return value


def byte_size_of_width(width: int) -> int:
    """Bytes occupied by an iN value in memory (padded to whole bytes)."""
    return (width + 7) // 8

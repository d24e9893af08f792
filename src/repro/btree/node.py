"""In-memory B+ tree nodes.

Nodes are slotted arrays allocated at fixed capacity (as a cache-friendly C
implementation would be), so the memory account reflects internal
fragmentation — part of the reason the paper finds page/slot-based
structures less memory-efficient than ART for sparse hot sets.

Inner nodes carry the same framework bookkeeping as ART inner nodes:
D bit (``dirty``), C bit (``clean_candidate``), sampled ``access_count`` /
``insert_count``, and an exact ``leaf_count`` of KV entries underneath.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Union

_NODE_HEADER_BYTES = 40
_KEY_SLOT_BYTES = 16
_POINTER_BYTES = 8
_ENTRY_FLAG_BYTES = 1


class _FrameworkMeta:
    """Bookkeeping shared by inner and leaf nodes."""

    __slots__ = ("dirty", "activity", "clean_candidate", "access_count", "insert_count")

    def __init__(self) -> None:
        self.dirty = False
        self.activity = False
        self.clean_candidate = False
        self.access_count = 0
        self.insert_count = 0


class BLeaf(_FrameworkMeta):
    """A leaf holding sorted parallel arrays of keys, values, dirty flags."""

    __slots__ = ("keys", "values", "entry_dirty", "capacity")

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self.entry_dirty: list[bool] = []

    @property
    def leaf_count(self) -> int:
        return len(self.keys)

    def is_full(self) -> bool:
        return len(self.keys) >= self.capacity

    def memory_bytes(self) -> int:
        payload = sum(len(v) for v in self.values)
        return (
            _NODE_HEADER_BYTES
            + self.capacity * (_KEY_SLOT_BYTES + _POINTER_BYTES + _ENTRY_FLAG_BYTES)
            + payload
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BLeaf(n={len(self.keys)}, dirty={self.dirty})"


class BInner(_FrameworkMeta):
    """An inner node: ``len(children) == len(separators) + 1``.

    ``separators[i]`` is the smallest key reachable through
    ``children[i + 1]``.
    """

    __slots__ = ("separators", "children", "leaf_count", "capacity")

    def __init__(self, capacity: int) -> None:
        super().__init__()
        self.capacity = capacity
        self.separators: list[bytes] = []
        self.children: list[BNode] = []
        self.leaf_count = 0

    def is_full(self) -> bool:
        return len(self.children) >= self.capacity

    def memory_bytes(self) -> int:
        return _NODE_HEADER_BYTES + self.capacity * (_KEY_SLOT_BYTES + _POINTER_BYTES)

    def child_slot(self, key: bytes) -> int:
        """Index of the child subtree that covers ``key``."""
        return bisect_right(self.separators, key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BInner(children={len(self.children)}, leaves={self.leaf_count})"


BNode = Union[BInner, BLeaf]

"""Skip-list MemTable.

The LSM write buffer: an ordered in-memory map that absorbs puts until it
reaches its byte budget and is flushed to an SSTable.  Implemented as a
probabilistic skip list (RocksDB's default MemTable layout) with a seeded
RNG for deterministic runs.  Skip-list level hops charge simulated CPU,
which is why RocksDB-as-a-system shows its flat, MemTable-bound write
throughput in Figure 3.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.effects import charges

_MAX_LEVEL = 16
_NODE_OVERHEAD = 32  # pointers + lengths in the C layout
#: every MemTable's level-draw seed: a fresh table repeats the same tower
#: heights, so runs are deterministic.
_SEED = 0x5EED


class _SkipNode:
    __slots__ = ("key", "value", "forward")

    def __init__(self, key: bytes, value: bytes, level: int) -> None:
        self.key = key
        self.value = value
        self.forward: list[Optional[_SkipNode]] = [None] * level


class MemTable:
    """Ordered write buffer with byte-size accounting."""

    def __init__(self, clock: SimClock, costs: CostModel) -> None:
        self._clock = clock
        self._costs = costs
        self._rng = random.Random(_SEED)
        self._head = _SkipNode(b"", b"", _MAX_LEVEL)
        self._level = 1
        self.entry_count = 0
        self.size_bytes = 0

    @charges("cpu_charge")
    def _charge(self, hops: int) -> None:
        self._clock.charge_cpu(hops * self._costs.skiplist_level)

    def _random_level(self) -> int:
        level = 1
        rand = self._rng.random
        while level < _MAX_LEVEL and rand() < 0.25:
            level += 1
        return level

    @charges("cpu_charge")
    def put(self, key: bytes, value: bytes) -> None:
        update: list[_SkipNode] = [self._head] * _MAX_LEVEL
        node = self._head
        hops = 0
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and nxt.key < key:
                node = nxt
                hops += 1
                nxt = node.forward[lvl]
            update[lvl] = node
        candidate = node.forward[0]
        if candidate is not None and candidate.key == key:
            self.size_bytes += len(value) - len(candidate.value)
            candidate.value = value
            self._charge(hops + 1)
            return
        level = self._random_level()
        if level > self._level:
            self._level = level
        new = _SkipNode(key, value, level)
        for lvl in range(level):
            new.forward[lvl] = update[lvl].forward[lvl]
            update[lvl].forward[lvl] = new
        self.entry_count += 1
        self.size_bytes += _NODE_OVERHEAD + len(key) + len(value)
        self._charge(hops + level)

    @charges("cpu_charge")
    def get(self, key: bytes) -> Optional[bytes]:
        node = self._head
        hops = 0
        for lvl in range(self._level - 1, -1, -1):
            nxt = node.forward[lvl]
            while nxt is not None and nxt.key < key:
                node = nxt
                hops += 1
                nxt = node.forward[lvl]
        candidate = node.forward[0]
        self._charge(hops + 1)
        if candidate is not None and candidate.key == key:
            return candidate.value
        return None

    def items(self, start: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries in key order, optionally from ``start``."""
        node = self._head
        if start is not None:
            for lvl in range(self._level - 1, -1, -1):
                nxt = node.forward[lvl]
                while nxt is not None and nxt.key < start:
                    node = nxt
                    nxt = node.forward[lvl]
        node = node.forward[0]
        while node is not None:
            yield node.key, node.value
            node = node.forward[0]

    def columns(self) -> tuple[list[bytes], list[bytes]]:
        """Every key and every value, in key order: one walk of the bottom level."""
        keys: list[bytes] = []
        values: list[bytes] = []
        add_key = keys.append
        add_value = values.append
        node = self._head.forward[0]
        while node is not None:
            add_key(node.key)
            add_value(node.value)
            node = node.forward[0]
        return keys, values

    def __len__(self) -> int:
        return self.entry_count

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

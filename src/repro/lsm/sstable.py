"""Sorted string tables.

An SSTable is an immutable run of sorted key/value pairs laid out as fixed
-budget data blocks on the simulated disk, plus two small in-memory
structures: a block index (first key + offset per block) and a bloom
filter.  Tables are written strictly sequentially — the whole point of the
LSM design the paper selects as its disk-friendly Index Y.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from itertools import accumulate, chain, islice
from operator import itemgetter
from struct import Struct
from typing import Iterator, Optional

from repro.cache.bytecache import PolicyCache
from repro.lsm.bloom import BloomFilter
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sim.effects import charges

#: key length(2) + value length(4), big-endian — same wire format as the
#: original per-field ``int.to_bytes`` encoding.
_ENTRY_HEADER = Struct(">HI")
#: stands in for an entry's header when only the encoded size is wanted.
_HEADER_PAD = bytes(_ENTRY_HEADER.size)


def encode_block(entries: list[tuple[bytes, bytes]]) -> bytes:
    """Serialize entries as length-prefixed key/value records."""
    parts: list[bytes] = []
    append = parts.append
    pack = _ENTRY_HEADER.pack
    for key, value in entries:
        append(pack(len(key), len(value)))
        append(key)
        append(value)
    return b"".join(parts)


def split_by_size(
    pairs: list[tuple[bytes, bytes]], budget: int, close_after: bool
) -> list[list[tuple[bytes, bytes]]]:
    """Cut ``pairs`` into consecutive groups of about ``budget`` encoded bytes.

    One cumulative-size pass over the whole list, then one bisect per group.
    The two callers close a group differently: a data block closes *before*
    the entry that would take it past ``budget`` (so a single oversize entry
    gets a block to itself); an output table (``close_after``) closes
    *after* the entry that reaches ``budget``.
    """
    # key + pad + value is as long as the encoded entry: measured in C.
    ends = list(accumulate(map(len, map(_HEADER_PAD.join, pairs))))
    count = len(ends)
    groups: list[list[tuple[bytes, bytes]]] = []
    start = base = 0
    while start < count:
        if close_after:
            stop = min(count, bisect_left(ends, base + budget) + 1)
        else:
            stop = max(start + 1, bisect_right(ends, base + budget))
        groups.append(pairs[start:stop])
        start, base = stop, ends[stop - 1]
    return groups


def decode_block(blob: bytes) -> list[tuple[bytes, bytes]]:
    """Invert :func:`encode_block`."""
    entries: list[tuple[bytes, bytes]] = []
    append = entries.append
    unpack = _ENTRY_HEADER.unpack_from
    pos = 0
    end = len(blob)
    while pos < end:
        klen, vlen = unpack(blob, pos)
        pos += 6
        key = blob[pos : pos + klen]
        pos += klen
        value = blob[pos : pos + vlen]
        pos += vlen
        append((key, value))
    return entries


class SSTable:
    """One immutable sorted run on disk."""

    def __init__(
        self,
        table_id: int,
        disk: SimDisk,
        clock: SimClock,
        costs: CostModel,
        block_offsets: list[int],
        block_first_keys: list[bytes],
        bloom: BloomFilter,
        min_key: bytes,
        max_key: bytes,
        entry_count: int,
        data_bytes: int,
    ) -> None:
        self.table_id = table_id
        self._disk = disk
        self._clock = clock
        self._costs = costs
        self._block_offsets = block_offsets
        self._block_first_keys = block_first_keys
        self.bloom = bloom
        self.min_key = min_key
        self.max_key = max_key
        self.entry_count = entry_count
        self.data_bytes = data_bytes

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    # disk_write is '*' not '+': the writes sit in a per-block loop, and the
    # nonempty-pairs guarantee that makes it >=1 at runtime is dynamic
    # (DESIGN.md §12, known imprecision).
    @charges("cpu_charge?", "bg_charge?", "disk_write*")
    def build(
        cls,
        table_id: int,
        disk: SimDisk,
        clock: SimClock,
        costs: CostModel,
        pairs: list[tuple[bytes, bytes]],
        block_size: int = 4096,
        bits_per_key: int = 10,
        background: bool = False,
    ) -> "SSTable":
        """Write ``pairs`` (sorted, unique keys) as a new table.

        The extent is allocated once and blocks are written back-to-back,
        so every write after the first is sequential on the device.
        """
        if not pairs:
            raise ValueError("cannot build an empty SSTable")

        blocks = split_by_size(pairs, block_size, close_after=False)
        encoded = [encode_block(b) for b in blocks]
        total = sum(map(len, encoded))
        base = disk.allocate(total)
        offsets: list[int] = []
        first_keys: list[bytes] = []
        cursor = base
        cpu_ns = 0.0
        for block, blob in zip(blocks, encoded, strict=True):
            disk.write(cursor, blob)
            offsets.append(cursor)
            first_keys.append(block[0][0])
            cursor += len(blob)
            cpu_ns += costs.copy_cost(len(blob))
        if background:
            clock.charge_background(cpu_ns)
        else:
            clock.charge_cpu(cpu_ns)

        bloom = BloomFilter.build(map(itemgetter(0), pairs), bits_per_key)
        return cls(
            table_id=table_id,
            disk=disk,
            clock=clock,
            costs=costs,
            block_offsets=offsets,
            block_first_keys=first_keys,
            bloom=bloom,
            min_key=pairs[0][0],
            max_key=pairs[-1][0],
            entry_count=len(pairs),
            data_bytes=total,
        )

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _block_index_for(self, key: bytes) -> int:
        """Index of the block that could contain ``key``."""
        i = bisect_right(self._block_first_keys, key) - 1
        return max(i, 0)

    @charges("disk_read?")
    def _load_block(
        self, index: int, block_cache: PolicyCache | None
    ) -> list[tuple[bytes, bytes]]:
        cache_key = (self.table_id, index)
        if block_cache is not None:
            cached = block_cache.get(cache_key)
            if cached is not None:
                return cached
        blob = self._disk.read(self._block_offsets[index])
        entries = decode_block(blob)
        if block_cache is not None:
            block_cache.put(cache_key, entries, len(blob))
        return entries

    @charges("cpu_charge+", "disk_read?")
    def get(self, key: bytes, block_cache: PolicyCache | None = None) -> Optional[bytes]:
        """Point lookup; bloom-filter negative answers avoid any I/O."""
        self._clock.charge_cpu(self._costs.bloom_probe)
        if key < self.min_key or key > self.max_key:
            return None
        if not self.bloom.may_contain(key):
            return None
        index = self._block_index_for(key)
        entries = self._load_block(index, block_cache)
        comparisons = max(1, int(math.log2(len(entries) + 1)))
        self._clock.charge_cpu(self._costs.compare_cost(comparisons) + self._costs.hash_probe)
        i = bisect_left(entries, (key, b""))
        if i < len(entries) and entries[i][0] == key:
            return entries[i][1]
        return None

    def blocks(
        self, first: int = 0, block_cache: PolicyCache | None = None
    ) -> Iterator[list[tuple[bytes, bytes]]]:
        """Yield the decoded blocks from index ``first`` on, loading lazily."""
        for index in range(first, len(self._block_offsets)):
            yield self._load_block(index, block_cache)

    def iter_from(
        self, start: bytes, block_cache: PolicyCache | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield pairs with key >= ``start`` in order, reading block by block.

        Lazy: a block is loaded (a disk charge and a block-cache touch) only
        when the consumer reaches it.  Only the first block can hold keys
        below ``start``; the rest are handed on whole.
        """
        blocks = self.blocks(self._block_index_for(start), block_cache)
        head = (block[bisect_left(block, (start,)) :] for block in islice(blocks, 1))
        return chain.from_iterable(chain(head, blocks))

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def free(self) -> None:
        """Release the table's disk extents (after compaction)."""
        free_extent = self._disk.free
        for offset in self._block_offsets:
            free_extent(offset)

    def overlaps(self, other: "SSTable") -> bool:
        return self.min_key <= other.max_key and other.min_key <= self.max_key

    def overlaps_range(self, low: bytes, high: bytes) -> bool:
        return self.min_key <= high and low <= self.max_key

    def index_memory_bytes(self) -> int:
        """In-memory footprint: block index plus bloom filter."""
        index_bytes = sum(len(k) + 8 for k in self._block_first_keys)
        return index_bytes + self.bloom.memory_bytes()

    @property
    def block_count(self) -> int:
        return len(self._block_offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.table_id}, entries={self.entry_count}, "
            f"blocks={self.block_count})"
        )

"""Sorted string tables.

An SSTable is an immutable run of sorted key/value pairs laid out as fixed
-budget data blocks on the simulated disk, plus two small in-memory
structures: a block index (first key + offset per block) and a bloom
filter.  Tables are written strictly sequentially — the whole point of the
LSM design the paper selects as its disk-friendly Index Y.

A block is one run of :mod:`repro.columns`, which owns its layout,
search and decoding.  It has no header; its entry count is the table's
``_block_counts`` entry, kept in memory from the build.  Tables are built
from key and value columns: one length pass cuts the blocks
(:func:`split_by_size`), and each block is one :func:`encode_run`.

The filter is built the first time anything asks for it (``SSTable.bloom``),
from the encoded blocks the table keeps until then — the very ``bytes``
objects the simulated disk holds.  Index X is the read cache (Section II-D),
so most tables flush and compaction write are compacted away unprobed, and
their filters never cost host time.  The bits, and ``index_memory_bytes``,
which sizes the filter from ``entry_count``, do not depend on when it is
built; building it charges nothing.

A point read bisects for its key inside the *encoded* block
(:func:`find_value`) and the block cache holds that encoded block — the
``bytes`` object the simulated disk holds — in a :class:`CachedBlock`, which
is decoded once, the first time it is reused (a cache hit or a scan).  The
paper keeps these caches minimal (Section II-D), so most blocks are read for
one key and never decoded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, chain, islice, repeat
from operator import add, sub
from typing import Iterator, Optional

from repro.cache.bytecache import PolicyCache
from repro.columns import ENTRY_BYTES, encode_run, find_value, run_columns, run_keys, run_pairs
from repro.lsm.bloom import BloomFilter, filter_bits
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sim.effects import charges

#: bloom-filter bits per key of every table (RocksDB's default).
_BITS_PER_KEY = 10


def split_by_size(
    key_lengths: list[int], value_lengths: list[int], budget: int, close_after: bool
) -> list[int]:
    """Where to cut entries into consecutive groups of about ``budget`` encoded bytes.

    Returns each group's end index.  One cumulative-size pass over the two
    length columns, then one bisect per group.  The two callers close a
    group differently: a data block closes *before* the entry that would
    take it past ``budget`` (so a single oversize entry gets a block to
    itself); an output table (``close_after``) closes *after* the entry that
    reaches ``budget``.
    """
    count = len(key_lengths)
    # Each entry's encoded size (its lengths plus 6), then one running sum.
    sizes = map(add, key_lengths, map(add, value_lengths, repeat(ENTRY_BYTES)))
    ends = list(accumulate(sizes))
    stops: list[int] = []
    start = base = 0
    while start < count:
        if close_after:
            stop = min(count, bisect_left(ends, base + budget) + 1)
        else:
            stop = max(start + 1, bisect_right(ends, base + budget))
        stops.append(stop)
        start, base = stop, ends[stop - 1]
    return stops


class CachedBlock:
    """What the block cache holds for a block: its encoding, decoded on reuse."""

    # No ``__init__``: ``SSTable._load_block``, the one place a block is read
    # through the cache, sets both slots itself, once per cache miss.
    __slots__ = ("blob", "decoded")
    blob: bytes
    decoded: Optional[list[tuple[bytes, bytes]]]

    def entries(self, count: int) -> list[tuple[bytes, bytes]]:
        """The decoded block of ``count`` entries; decoded once and kept, never re-``put``."""
        decoded = self.decoded
        if decoded is None:
            decoded = self.decoded = run_pairs(self.blob, count)
        return decoded


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
        block_counts: list[int],
        encoded: list[bytes],
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
        #: entries per block: a point read charges its in-block comparisons
        #: from here, having decoded nothing to count.
        self._block_counts = block_counts
        #: the encoded blocks, kept until ``bloom`` is built from them.
        self._encoded: Optional[list[bytes]] = encoded
        self.min_key = min_key
        self.max_key = max_key
        self.entry_count = entry_count
        self.data_bytes = data_bytes

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    # disk_write is '*' not '+': the writes sit in a per-block loop, and the
    # nonempty-keys guarantee that makes it >=1 at runtime is dynamic
    # (DESIGN.md §12, known imprecision).
    @charges("bg_charge", "disk_write*")
    def build(
        cls,
        table_id: int,
        disk: SimDisk,
        clock: SimClock,
        costs: CostModel,
        keys: list[bytes],
        values: list[bytes],
        key_lengths: list[int],
        value_lengths: list[int],
        block_size: int = 4096,
    ) -> "SSTable":
        """Write ``keys`` (sorted, unique) and their ``values`` as a new table.

        ``key_lengths``/``value_lengths`` are the two columns' lengths (a
        compaction has them already, from cutting its output tables).  The
        extent is allocated once and blocks are written back-to-back, so
        every write after the first is sequential on the device.  Tables are
        built by flush and compaction only, so the copy CPU is charged to
        the background account.
        """
        if not keys:
            raise ValueError("cannot build an empty SSTable")

        stops = split_by_size(key_lengths, value_lengths, block_size, close_after=False)
        starts = [0, *stops[:-1]]
        encoded = [
            encode_run(keys[a:b], values[a:b], key_lengths[a:b], value_lengths[a:b])
            for a, b in zip(starts, stops)
        ]
        total = sum(map(len, encoded))
        cursor = disk.allocate(total)
        offsets: list[int] = []
        cpu_ns = 0.0
        for blob in encoded:
            disk.write(cursor, blob)
            offsets.append(cursor)
            cursor += len(blob)
            cpu_ns += costs.copy_cost(len(blob))
        clock.charge_background(cpu_ns)
        return cls(
            table_id=table_id,
            disk=disk,
            clock=clock,
            costs=costs,
            block_offsets=offsets,
            block_first_keys=list(map(keys.__getitem__, starts)),
            block_counts=list(map(sub, stops, starts)),
            encoded=encoded,
            min_key=keys[0],
            max_key=keys[-1],
            entry_count=len(keys),
            data_bytes=total,
        )

    @cached_property
    def bloom(self) -> BloomFilter:
        """The table's filter, built from its blocks the first time it is asked for."""
        encoded = self._encoded
        assert encoded is not None, f"table {self.table_id} was freed before its first probe"
        self._encoded = None
        return BloomFilter.build(run_keys(encoded, self._block_counts), _BITS_PER_KEY)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    @charges("disk_read?")
    def _load_block(self, index: int, block_cache: PolicyCache | None) -> CachedBlock:
        """Block ``index`` through the cache: decoded if reused, encoded if just read."""
        cache_key = (self.table_id, index)
        if block_cache is not None:
            block = block_cache.get(cache_key)
            if block is not None:
                # reused: decode it now, once, and bisect from here on
                block.entries(self._block_counts[index])
                return block
        blob = self._disk.read(self._block_offsets[index])
        block = CachedBlock()
        block.blob = blob
        block.decoded = None
        if block_cache is not None:
            block_cache.put(cache_key, block, len(blob))
        return block

    @charges("cpu_charge+", "disk_read?")
    def get(
        self, key: bytes, pair: tuple[int, int], block_cache: PolicyCache | None = None
    ) -> Optional[bytes]:
        """Point lookup; bloom-filter negative answers avoid any I/O.

        ``pair`` is ``hash_pair(key)``, taken once per ``LSMStore.get``.
        """
        self._clock.charge_cpu(self._costs.bloom_probe)
        if key < self.min_key or key > self.max_key:
            return None
        if not self.bloom.may_contain_hashed(pair):
            return None
        # The block that could hold the key: the last one starting at or below it.
        index = max(bisect_right(self._block_first_keys, key) - 1, 0)
        block = self._load_block(index, block_cache)
        count = self._block_counts[index]
        comparisons = max(1, int(math.log2(count + 1)))
        self._clock.charge_cpu(self._costs.compare_cost(comparisons) + self._costs.hash_probe)
        entries = block.decoded
        if entries is None:
            blob = block.blob
            span = find_value(blob, count, key)
            return None if span is None else blob[span]
        i = bisect_left(entries, (key, b""))
        if i < len(entries) and entries[i][0] == key:
            return entries[i][1]
        return None

    def blocks(
        self, first: int = 0, block_cache: PolicyCache | None = None
    ) -> Iterator[list[tuple[bytes, bytes]]]:
        """Yield the decoded blocks from index ``first`` on, loading lazily."""
        counts = self._block_counts
        if block_cache is None:
            # A table read without a cache: nothing to hold.
            blobs = map(self._disk.read, self._block_offsets[first:])
            yield from map(run_pairs, blobs, counts[first:])
            return
        load_block = self._load_block
        for index in range(first, len(self._block_offsets)):
            yield load_block(index, block_cache).entries(counts[index])

    def columns(self) -> Iterator[tuple[bytes, ...]]:
        """Every block's keys then values, in order, read past the cache (compaction)."""
        read = self._disk.read
        for offset, count in zip(self._block_offsets, self._block_counts, strict=True):
            yield run_columns(read(offset), count)

    def iter_from(
        self, start: bytes, block_cache: PolicyCache | None = None
    ) -> Iterator[tuple[bytes, bytes]]:
        """Yield pairs with key >= ``start`` in order, reading block by block.

        Lazy: a block is loaded (a disk charge and a block-cache touch) only
        when the consumer reaches it.  Only the first block can hold keys
        below ``start``; the rest are handed on whole.
        """
        first = max(bisect_right(self._block_first_keys, start) - 1, 0)
        blocks = self.blocks(first, block_cache)
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
        # Compaction's locals still hold the retired table: its blocks must not.
        self._encoded = None

    def overlaps_range(self, low: bytes, high: bytes) -> bool:
        return self.min_key <= high and low <= self.max_key

    def index_memory_bytes(self) -> int:
        """In-memory footprint: block index plus bloom filter, built or not."""
        index_bytes = sum(len(k) + 8 for k in self._block_first_keys)
        return index_bytes + (filter_bits(self.entry_count, _BITS_PER_KEY) + 7) // 8

    @property
    def block_count(self) -> int:
        return len(self._block_offsets)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SSTable(id={self.table_id}, entries={self.entry_count}, "
            f"blocks={self.block_count})"
        )

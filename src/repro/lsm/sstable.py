"""Sorted string tables.

An SSTable is an immutable run of sorted key/value pairs laid out as fixed
-budget data blocks on the simulated disk, plus two small in-memory
structures: a block index (first key + offset per block) and a bloom
filter.  Tables are written strictly sequentially — the whole point of the
LSM design the paper selects as its disk-friendly Index Y.

The filter is built the first time anything asks for it (``SSTable.bloom``),
from the encoded blocks the table keeps until then — the very ``bytes``
objects the simulated disk holds.  Index X is the read cache (Section II-D),
so most tables flush and compaction write are compacted away unprobed, and
their filters never cost host time.  The bits, and ``index_memory_bytes``,
which sizes the filter from ``entry_count``, do not depend on when it is
built; building it charges nothing.

A point read looks for its key inside the *encoded* block
(:func:`search_block`) and the block cache holds that encoded block — the
``bytes`` object the simulated disk holds — in a :class:`CachedBlock`, which
is decoded once, the first time it is reused (a cache hit or a scan).  The
paper keeps these caches minimal (Section II-D), so most blocks are read for
one key and never decoded.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import accumulate, chain, islice
from struct import Struct
from typing import Iterator, Optional

from repro.cache.bytecache import PolicyCache
from repro.lsm.bloom import BloomFilter, filter_bits
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.disk import SimDisk
from repro.sim.effects import charges

#: key length(2) + value length(4), big-endian — same wire format as the
#: original per-field ``int.to_bytes`` encoding.
_ENTRY_HEADER = Struct(">HI")
#: stands in for an entry's header when only the encoded size is wanted.
_HEADER_PAD = bytes(_ENTRY_HEADER.size)
#: bloom-filter bits per key of every table (RocksDB's default).
_BITS_PER_KEY = 10


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


def block_keys(blobs: list[bytes]) -> list[bytes]:
    """Every key of the encoded blocks ``blobs``, in order: one header walk."""
    keys: list[bytes] = []
    append = keys.append
    unpack = _ENTRY_HEADER.unpack_from
    for blob in blobs:
        pos = 0
        end = len(blob)
        while pos < end:
            klen, vlen = unpack(blob, pos)
            pos += 6
            append(blob[pos : pos + klen])
            pos += klen + vlen
    return keys


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


def search_block(blob: bytes, key: bytes) -> Optional[bytes]:
    """The value stored under ``key`` in an encoded block, or ``None``.

    Walks the entry headers and stops at the first key not below ``key``
    (a block's keys are sorted): what ``decode_block`` plus a bisect finds,
    without building the entries passed over.
    """
    unpack = _ENTRY_HEADER.unpack_from
    pos = 0
    end = len(blob)
    while pos < end:
        klen, vlen = unpack(blob, pos)
        pos += 6
        value_at = pos + klen
        found = blob[pos:value_at]
        if found >= key:
            return blob[value_at : value_at + vlen] if found == key else None
        pos = value_at + vlen
    return None


class CachedBlock:
    """What the block cache holds for a block: its encoding, decoded on reuse."""

    # No ``__init__``: ``SSTable._load_block``, the one place a block is read
    # through the cache, sets both slots itself, once per cache miss.
    __slots__ = ("blob", "decoded")
    blob: bytes
    decoded: Optional[list[tuple[bytes, bytes]]]

    def entries(self) -> list[tuple[bytes, bytes]]:
        """The decoded block; decoded once and kept, never re-``put``."""
        decoded = self.decoded
        if decoded is None:
            decoded = self.decoded = decode_block(self.blob)
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
    # nonempty-pairs guarantee that makes it >=1 at runtime is dynamic
    # (DESIGN.md §12, known imprecision).
    @charges("bg_charge", "disk_write*")
    def build(
        cls,
        table_id: int,
        disk: SimDisk,
        clock: SimClock,
        costs: CostModel,
        pairs: list[tuple[bytes, bytes]],
        block_size: int = 4096,
    ) -> "SSTable":
        """Write ``pairs`` (sorted, unique keys) as a new table.

        The extent is allocated once and blocks are written back-to-back,
        so every write after the first is sequential on the device.  Tables
        are built by flush and compaction only, so the copy CPU is charged
        to the background account.
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
        clock.charge_background(cpu_ns)
        return cls(
            table_id=table_id,
            disk=disk,
            clock=clock,
            costs=costs,
            block_offsets=offsets,
            block_first_keys=first_keys,
            block_counts=list(map(len, blocks)),
            encoded=encoded,
            min_key=pairs[0][0],
            max_key=pairs[-1][0],
            entry_count=len(pairs),
            data_bytes=total,
        )

    @cached_property
    def bloom(self) -> BloomFilter:
        """The table's filter, built from its blocks the first time it is asked for."""
        encoded = self._encoded
        assert encoded is not None, f"table {self.table_id} was freed before its first probe"
        self._encoded = None
        return BloomFilter.build(block_keys(encoded), _BITS_PER_KEY)

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
                block.entries()  # reused: decode it now, once, and bisect from here on
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
        comparisons = max(1, int(math.log2(self._block_counts[index] + 1)))
        self._clock.charge_cpu(self._costs.compare_cost(comparisons) + self._costs.hash_probe)
        entries = block.decoded
        if entries is None:
            return search_block(block.blob, key)
        i = bisect_left(entries, (key, b""))
        if i < len(entries) and entries[i][0] == key:
            return entries[i][1]
        return None

    def blocks(
        self, first: int = 0, block_cache: PolicyCache | None = None
    ) -> Iterator[list[tuple[bytes, bytes]]]:
        """Yield the decoded blocks from index ``first`` on, loading lazily."""
        if block_cache is None:
            # Compaction and the sanitizer read past the cache: nothing to hold.
            yield from map(decode_block, map(self._disk.read, self._block_offsets[first:]))
            return
        load_block = self._load_block
        for index in range(first, len(self._block_offsets)):
            yield load_block(index, block_cache).entries()

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

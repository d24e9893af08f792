"""The leveled LSM store.

Wires MemTable, SSTables, compaction, and caches into a key-value store
with the interface the IndeXY framework expects of an Index Y.  Level 0
collects freshly flushed (mutually overlapping) tables; levels 1+ hold
non-overlapping sorted runs with exponentially growing byte budgets.

Compaction is a maintenance task on the engine runtime's background
scheduler: every flush *requests* a compaction pass (run inline under
backpressure, which keeps level budgets bounded under write bursts).
Either way compaction charges background CPU and real simulated disk I/O —
so it competes with foreground requests for the disk exactly as the paper
observes (the ART-LSM throughput fluctuation in Figure 9).

On the host, flush and compaction hand tables key and value columns and call
Python once per table or per block, never once per entry: ``flush`` takes
both columns from one memtable walk (``MemTable.columns``); a compaction
merges with one dict update per block and one ``sorted``
(``_merge_tables``), takes the length columns once, and cuts output tables
and their blocks from them (``sstable.split_by_size``); each block is
encoded with one ``pack`` and one ``join``.  They build no filter: a table
builds its own on its first probe (``SSTable.bloom``), and most are
compacted away before any read reaches them.  A point read does each piece
of work once: ``get`` hashes the key once for all the filters it probes
(``bloom.hash_pair``) and a block read for one key is bisected encoded, not
decoded (``sstable.search_block``).  Block lengths, offsets, every charge
and every bloom bit are what the per-entry row codec and loops produced
(DESIGN.md §7).
"""

from __future__ import annotations

import heapq
import itertools
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Iterator, Optional

from repro.cache.bytecache import PolicyCache
from repro.lsm.bloom import hash_pair
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import MAX_KEY_BYTES, MAX_VALUE_BYTES, SSTable, split_by_size
from repro.sim.effects import charges
from repro.sim.runtime import EngineRuntime
from repro.sim.stats import StatCounters

#: Deletion marker. Chosen to be an impossible user value (values are
#: opaque bytes; the store owns this sentinel and strips it on reads).
TOMBSTONE = b"\x00__tombstone__\x00"
#: level 0 plus six sorted levels (RocksDB's default ``num_levels``).
MAX_LEVELS = 7


@dataclass(frozen=True)
class LSMConfig:
    """Store tuning knobs (defaults scaled to the simulation sizes).

    ``memtable_bytes`` is the write buffer the framework reuses as its
    transfer buffer; ``block_cache_bytes`` / ``row_cache_bytes`` are the
    deliberately small read caches of Section II-D.
    """

    memtable_bytes: int = 256 * 1024
    block_size: int = 4096
    block_cache_bytes: int = 256 * 1024
    row_cache_bytes: int = 0
    #: eviction policies (``repro.cache`` registry names); LRU is the
    #: historical behaviour and keeps committed results byte-identical.
    block_cache_policy: str = "lru"
    row_cache_policy: str = "lru"
    level0_table_limit: int = 4
    level1_bytes: int = 1 * 1024 * 1024
    level_size_multiplier: int = 10


class LSMStore:
    """A leveled LSM key-value store over a simulated disk."""

    #: the largest entry an SSTable block's length columns can record;
    #: ``put`` refuses more before the memtable holds it.
    max_key_bytes = MAX_KEY_BYTES
    max_value_bytes = MAX_VALUE_BYTES
    max_entry_bytes = MAX_KEY_BYTES + MAX_VALUE_BYTES

    def __init__(self, runtime: EngineRuntime, config: LSMConfig | None = None) -> None:
        self.disk = runtime.disk
        self.clock = runtime.clock
        self.costs = runtime.costs
        self.config = config or LSMConfig()
        self.stats = StatCounters()  # component-local counters  # reprolint: allow[RL001]
        self._scheduler = runtime.scheduler
        self._compaction_task = self._scheduler.register(
            "lsm_compaction",
            self._maybe_compact,
            priority=10,
            backpressure_threshold=4,
        )
        self._table_ids = itertools.count(1)
        self._memtable = self._new_memtable()
        #: levels[0] is newest-first and may overlap; levels[n>=1] are
        #: sorted by min_key and disjoint.
        self.levels: list[list[SSTable]] = [[] for __ in range(MAX_LEVELS)]
        #: per-level ``[t.min_key for t in tables]`` memo for the read
        #: path's bisect; invalidated whenever the level's table list
        #: changes.  Pure wall-clock: the bisect sees the same list either
        #: way, so simulated results are untouched.
        self._min_keys: list[Optional[list[bytes]]] = [None] * MAX_LEVELS
        self.block_cache = PolicyCache(
            self.config.block_cache_bytes, self.config.block_cache_policy
        )
        self.row_cache = (
            PolicyCache(self.config.row_cache_bytes, self.config.row_cache_policy)
            if self.config.row_cache_bytes
            else None
        )

    def _new_memtable(self) -> MemTable:
        return MemTable(self.clock, self.costs)

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> None:
        """Write to the memtable, flushing it once it reaches its budget.

        Raises ValueError, before the memtable holds the entry, for a key
        or value longer than a table's length columns record: the flush
        that wrote it out would fail.
        """
        if len(key) > MAX_KEY_BYTES or len(value) > MAX_VALUE_BYTES:
            raise ValueError(
                f"entry of {len(key)}-byte key and {len(value)}-byte value exceeds "
                f"an SSTable's {MAX_KEY_BYTES}-byte keys or {MAX_VALUE_BYTES}-byte values"
            )
        self._memtable.put(key, value)
        if self.row_cache is not None:
            self.row_cache.invalidate(key)
        if self._memtable.size_bytes >= self.config.memtable_bytes:
            self.flush()

    def put_batch(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Batched writes from the framework's pre-cleaner (sorted ranges)."""
        for key, value in pairs:
            self.put(key, value)

    def delete(self, key: bytes) -> None:
        self.put(key, TOMBSTONE)

    def flush(self) -> None:
        """Freeze the MemTable into a level-0 SSTable."""
        if not len(self._memtable):
            return
        keys, values = self._memtable.columns()
        table = SSTable.build(
            next(self._table_ids),
            self.disk,
            self.clock,
            self.costs,
            keys,
            values,
            list(map(len, keys)),
            list(map(len, values)),
            block_size=self.config.block_size,
        )
        self.levels[0].insert(0, table)
        self._min_keys[0] = None
        self._memtable = self._new_memtable()
        self.stats.bump("flushes")
        self.stats.bump("flush_bytes", table.data_bytes)
        self._scheduler.request(self._compaction_task)

    # ------------------------------------------------------------------
    # compaction
    # ------------------------------------------------------------------
    def _level_target_bytes(self, level: int) -> int:
        return self.config.level1_bytes * self.config.level_size_multiplier ** (level - 1)

    def _level_bytes(self, level: int) -> int:
        return sum(t.data_bytes for t in self.levels[level])

    def _maybe_compact(self) -> None:
        # L0 compacts by table count (tables overlap, reads touch them all).
        while len(self.levels[0]) > self.config.level0_table_limit:
            self._compact_level(0)
        for level in range(1, MAX_LEVELS - 1):
            while self._level_bytes(level) > self._level_target_bytes(level):
                self._compact_level(level)

    def _compact_level(self, level: int) -> None:
        """Merge ``level`` (or, below level 0, its lowest-key table) into ``level + 1``."""
        if level == 0:
            upper = list(self.levels[0])
        else:
            # ``levels[n>=1]`` is sorted by min_key, so ``[0]`` is the table
            # with the lowest key range, not the oldest: an over-budget level
            # always pushes its lowest range down first.  The committed
            # results pin this pick (DESIGN.md §4b).
            upper = [self.levels[level][0]]
        low = min(t.min_key for t in upper)
        high = max(t.max_key for t in upper)
        lower = [t for t in self.levels[level + 1] if t.overlaps_range(low, high)]

        keys, values = self._merge_tables(upper, lower, drop_tombstones=self._is_bottom(level + 1))
        self._min_keys[level] = None
        self._min_keys[level + 1] = None
        for table in upper:
            self.levels[level].remove(table)
            table.free()
        for table in lower:
            self.levels[level + 1].remove(table)
            table.free()
        self.stats.bump("compactions")

        if keys:
            out_budget = max(self.config.level1_bytes, self.config.memtable_bytes * 4)
            bump = self.stats.bump
            key_lengths = list(map(len, keys))
            value_lengths = list(map(len, values))
            start = 0
            for stop in split_by_size(key_lengths, value_lengths, out_budget, close_after=True):
                table = SSTable.build(
                    next(self._table_ids),
                    self.disk,
                    self.clock,
                    self.costs,
                    keys[start:stop],
                    values[start:stop],
                    key_lengths[start:stop],
                    value_lengths[start:stop],
                    block_size=self.config.block_size,
                )
                self.levels[level + 1].append(table)
                bump("compaction_bytes_written", table.data_bytes)
                start = stop
            self.levels[level + 1].sort(key=lambda t: t.min_key)

    def _is_bottom(self, level: int) -> bool:
        return all(not self.levels[lv] for lv in range(level + 1, MAX_LEVELS))

    # Merging is compaction work: its comparison/copy CPU lands on the
    # background account even when the compaction pass runs inline.
    @charges("bg_charge", "disk_read*")
    def _merge_tables(
        self, newer: list[SSTable], older: list[SSTable], drop_tombstones: bool
    ) -> tuple[list[bytes], list[bytes]]:
        """Newest-wins merge of complete tables (no caches): keys and values.

        Every table is read in full, oldest table first, block by block —
        the simulated disk classifies sequential vs. random I/O by request
        order, so the read schedule (and with it the simulated cost) must
        not depend on how the keys interleave.  Each block's key and value
        columns land in one dict with one ``dict.update`` of their ``zip``,
        so a newer run's value replaces an older one (keys are unique within
        a run: newest-wins is the only tie), and the dict's insertion order
        is a handful of sorted stretches, which ``sorted`` (Timsort) merges
        in C.
        """
        merged: dict[bytes, bytes] = {}
        update = merged.update
        for table in itertools.chain(reversed(older), reversed(newer)):
            for parts in table.columns():
                count = len(parts) >> 1
                update(zip(itertools.islice(parts, count), itertools.islice(parts, count, None)))
        keys = sorted(merged)
        values = list(map(merged.__getitem__, keys))
        self.clock.charge_background(
            self.costs.compare_cost(len(keys)) + self.costs.copy_cost(len(keys) * 16)
        )
        if drop_tombstones and TOMBSTONE in merged.values():
            live = list(map(TOMBSTONE.__ne__, values))
            keys = list(itertools.compress(keys, live))
            values = list(itertools.compress(values, live))
        return keys, values

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        value = self._memtable.get(key)
        if value is not None:
            self.stats.bump("memtable_hits")
            return None if value == TOMBSTONE else value
        if self.row_cache is not None:
            self.clock.charge_cpu(self.costs.hash_probe)
            cached = self.row_cache.get(key)
            if cached is not None:
                self.stats.bump("row_cache_hits")
                return None if cached == TOMBSTONE else cached
        pair = hash_pair(key)
        block_cache = self.block_cache
        for table in self.levels[0]:
            value = table.get(key, pair, block_cache)
            if value is not None:
                break
        if value is None:
            for level in range(1, MAX_LEVELS):
                table = self._find_table(level, key)
                if table is not None:
                    value = table.get(key, pair, block_cache)
                    if value is not None:
                        break
            if value is None:
                return None
        if self.row_cache is not None:
            self.row_cache.put(key, value, len(key) + len(value) + 16)
        return None if value == TOMBSTONE else value

    def _find_table(self, level: int, key: bytes) -> Optional[SSTable]:
        tables = self.levels[level]
        if not tables:
            return None
        min_keys = self._min_keys[level]
        if min_keys is None:
            min_keys = self._min_keys[level] = [t.min_key for t in tables]
        i = bisect_right(min_keys, key) - 1
        if i < 0:
            return None
        table = tables[i]
        return table if key <= table.max_key else None

    # ------------------------------------------------------------------
    # scans
    # ------------------------------------------------------------------
    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Merged range scan across MemTable and every level.

        The multi-source merge is the structural reason LSM scans trail
        B+-tree scans (Benchmark E in Figure 8): every source contributes
        I/O and the merge must dedup across levels.
        """
        if count <= 0:
            return []
        sources: list[Iterator[tuple[bytes, bytes]]] = []
        # Priority: lower sequence = newer. MemTable is newest.
        sources.append(iter(self._memtable.items(start)))
        for table in self.levels[0]:
            sources.append(table.iter_from(start, self.block_cache))
        for level in range(1, MAX_LEVELS):
            for table in self.levels[level]:
                if table.max_key >= start:
                    sources.append(table.iter_from(start, self.block_cache))

        def tag(
            src: Iterator[tuple[bytes, bytes]], seq: int
        ) -> Iterator[tuple[bytes, int, bytes]]:
            # A function (not a nested genexp) so ``seq`` is bound per
            # source: a genexp here resolves ``seq`` late in the outer
            # genexp's exhausted frame, so every lane tags with the final
            # seq and key ties break on value *bytes* instead of recency —
            # a stale TOMBSTONE (leading ``\\x00``) then shadows the
            # memtable's fresh value and the scan silently drops the key.
            return ((key, seq, value) for key, value in src)

        merged = heapq.merge(*(tag(src, seq) for seq, src in enumerate(sources)))
        out: list[tuple[bytes, bytes]] = []
        last_key: Optional[bytes] = None
        for key, __, value in merged:
            if key == last_key:
                continue
            last_key = key
            if value == TOMBSTONE:
                continue
            out.append((key, value))
            if len(out) >= count:
                break
        self.clock.charge_cpu(self.costs.compare_cost(len(out) * max(1, len(sources))))
        return out

    # ------------------------------------------------------------------
    # live re-budgeting
    # ------------------------------------------------------------------
    def resize(
        self, memtable_bytes: int, block_cache_bytes: int, row_cache_bytes: int = 0
    ) -> None:
        """Re-budget the live buffers; the keywords are ``LSMConfig``'s own.

        Caches shrink through their eviction policy (same victims a full
        workload at the smaller budget would have picked next), they are
        never dropped and rebuilt, and ``config`` is kept in sync so
        ``memory_bytes`` accounting stays truthful.  A row cache exists
        for the store's whole life or not at all.  A MemTable already
        past the new threshold flushes now.
        """
        if (row_cache_bytes > 0) != (self.row_cache is not None):
            raise ValueError("a row cache is sized, never added or dropped, by resize")
        self.block_cache.resize(block_cache_bytes)
        if self.row_cache is not None:
            self.row_cache.resize(row_cache_bytes)
        self.config = replace(
            self.config,
            memtable_bytes=memtable_bytes,
            block_cache_bytes=block_cache_bytes,
            row_cache_bytes=row_cache_bytes,
        )
        if self._memtable.size_bytes >= memtable_bytes:
            self.flush()

    def hit_counts(self) -> tuple[int, int]:
        """(hits, misses) of the block and row caches together."""
        caches = [c for c in (self.block_cache, self.row_cache) if c is not None]
        return sum(c.hits for c in caches), sum(c.misses for c in caches)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """In-memory footprint: MemTable, caches, indexes, blooms."""
        total = self._memtable.size_bytes
        total += self.block_cache.used_bytes
        if self.row_cache is not None:
            total += self.row_cache.used_bytes
        for level in self.levels:
            for table in level:
                total += table.index_memory_bytes()
        return total

    @property
    def disk_bytes(self) -> int:
        return sum(t.data_bytes for level in self.levels for t in level)

    @property
    def table_count(self) -> int:
        return sum(len(level) for level in self.levels)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        shape = "/".join(str(len(level)) for level in self.levels)
        return f"LSMStore(tables={shape}, memtable={self._memtable.size_bytes}B)"

"""The LSM store's host-side kernels, pinned to the code they replaced.

Write path: ``BloomFilter.add_many``, ``split_by_size`` and
``LSMStore._merge_tables`` do per table or per block what PR 18's tree did
once per entry.  The replaced loops are kept here verbatim as references
(``iter_all`` spelled as the block walk that replaced it), and every test
demands equality — one bit of a filter, one block boundary or one float of a
charge off fails it.

Block codec: a block is one run of ``repro.columns`` (every key length,
every value length, the keys, the values) and its entry count is kept by the
table.  The row codec it replaced — a ``(klen, vlen)`` header before each
entry — is kept below verbatim (``row_encode_block``, ``row_decode_block``,
``row_search_block``, ``row_block_keys``).  The two layouts differ in their
bytes, so the pins compare what every charge and request is sized from:
each block's encoded length, its decoded entries, every ``find_value``
answer, and a whole run's offsets, filter bits and accounts with the row
codec swapped in (section c).

Read path: ``find_value`` bisects for a key inside the encoded block, one
``hash_pair`` per ``LSMStore.get`` probes every table's filter, and the block
cache holds a ``CachedBlock`` that is decoded on its first reuse.  Their
references are PR 21's ``may_contain``, ``SSTable._load_block``, ``get`` and
``blocks`` (sections d and e).

A table builds its filter on its first probe, from the encoded blocks it
keeps until then; its reference is the eager ``SSTable.build`` that hashed
every key as it wrote the table (section f).
"""

import heapq
import math
import random
from bisect import bisect_left, bisect_right, insort
from itertools import accumulate, chain
from struct import Struct
from typing import Iterator, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import bloom as bloom_module
from repro.lsm import sstable as sstable_module
from repro.lsm import store as store_module
from repro.cache.bytecache import PolicyCache
from repro.lsm.bloom import BloomFilter, hash_pair
from repro.lsm.sstable import SSTable, split_by_size
from repro.columns import encode_run, find_value, run_fits, run_pairs
from repro.art.keys import encode_int
from repro.art.tree import AdaptiveRadixTree
from repro.core.config import IndeXYConfig
from repro.core.indexy import IndeXY
from repro.lsm.store import TOMBSTONE, LSMConfig, LSMStore
from repro.sim.runtime import EngineRuntime

Pairs = list[tuple[bytes, bytes]]


def _columns(pairs: Pairs) -> tuple[list[bytes], list[bytes]]:
    return [key for key, __ in pairs], [value for __, value in pairs]


def _lengths(pairs: Pairs) -> tuple[list[int], list[int]]:
    return [len(key) for key, __ in pairs], [len(value) for __, value in pairs]


def _encode(entries: Pairs) -> bytes:
    """``encode_run`` of ``entries`` in the column layout."""
    return encode_run(*_columns(entries), *_lengths(entries))


def _search(blob: bytes, count: int, key: bytes) -> Optional[bytes]:
    """The value ``find_value`` locates in the block, or ``None``."""
    span = find_value(blob, count, key)
    return None if span is None else blob[span]


def _build(
    table_id: int, runtime: EngineRuntime, pairs: Pairs, block_size: int = 4096
) -> SSTable:
    disk, clock, costs = runtime.disk, runtime.clock, runtime.costs
    columns = (*_columns(pairs), *_lengths(pairs))
    return SSTable.build(table_id, disk, clock, costs, *columns, block_size=block_size)


def _stops(groups: list[Pairs]) -> list[int]:
    """Each group's end index in the run the groups were cut from."""
    return list(accumulate(map(len, groups)))


# ----------------------------------------------------------------------
# references: the parent commit's per-entry code
# ----------------------------------------------------------------------
def _reference_add_many(bloom: BloomFilter, keys: list[bytes]) -> None:
    add = bloom.add
    for key in keys:
        add(key)


def _reference_encode_block(entries: Pairs) -> bytes:
    """The row wire format, field by field: what a block's length is pinned to."""
    return b"".join(
        len(key).to_bytes(2, "big") + len(value).to_bytes(4, "big") + key + value
        for key, value in entries
    )


_ROW_HEADER = Struct(">HI")


def row_encode_block(entries: Pairs) -> bytes:
    """Serialize entries as length-prefixed key/value records."""
    parts: list[bytes] = []
    append = parts.append
    pack = _ROW_HEADER.pack
    for key, value in entries:
        append(pack(len(key), len(value)))
        append(key)
        append(value)
    return b"".join(parts)


def row_block_keys(blobs: list[bytes]) -> list[bytes]:
    """Every key of the encoded blocks ``blobs``, in order: one header walk."""
    keys: list[bytes] = []
    append = keys.append
    unpack = _ROW_HEADER.unpack_from
    for blob in blobs:
        pos = 0
        end = len(blob)
        while pos < end:
            klen, vlen = unpack(blob, pos)
            pos += 6
            append(blob[pos : pos + klen])
            pos += klen + vlen
    return keys


def row_decode_block(blob: bytes) -> Pairs:
    """Invert :func:`row_encode_block`."""
    entries: Pairs = []
    append = entries.append
    unpack = _ROW_HEADER.unpack_from
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


def row_search_block(blob: bytes, key: bytes) -> Optional[bytes]:
    """The value stored under ``key`` in a row-encoded block, or ``None``."""
    unpack = _ROW_HEADER.unpack_from
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


def _row_find_value(blob: bytes, count: int, key: bytes) -> Optional[slice]:
    """Where in a row block ``row_search_block``'s answer lies, or ``None``."""
    end = 0
    for found, value in row_decode_block(blob):
        end += 6 + len(found) + len(value)
        if found == key:
            span = slice(end - len(value), end)
            assert blob[span] == row_search_block(blob, key)
            return span
    assert row_search_block(blob, key) is None
    return None


def _install_row_codec(monkeypatch) -> None:
    """Swap the row codec in, behind the column codec's signatures."""
    monkeypatch.setattr(
        sstable_module,
        "encode_run",
        lambda keys, values, key_lengths, value_lengths: row_encode_block(
            list(zip(keys, values, strict=True))
        ),
    )
    monkeypatch.setattr(sstable_module, "run_pairs", lambda blob, count: row_decode_block(blob))
    monkeypatch.setattr(sstable_module, "find_value", _row_find_value)
    monkeypatch.setattr(sstable_module, "run_keys", lambda blobs, counts: row_block_keys(blobs))


def _reference_blocks(pairs: Pairs, block_size: int) -> list[Pairs]:
    """``SSTable.build``'s block loop."""
    blocks: list[Pairs] = []
    current: Pairs = []
    current_bytes = 0
    for key, value in pairs:
        entry_bytes = 2 + 4 + len(key) + len(value)
        if current and current_bytes + entry_bytes > block_size:
            blocks.append(current)
            current = []
            current_bytes = 0
        current.append((key, value))
        current_bytes += entry_bytes
    blocks.append(current)
    return blocks


def _reference_chunk_pairs(pairs: Pairs, budget_bytes: int) -> Iterator[Pairs]:
    """``LSMStore._chunk_pairs``."""
    chunk: Pairs = []
    size = 0
    for key, value in pairs:
        chunk.append((key, value))
        size += len(key) + len(value) + 6
        if size >= budget_bytes:
            yield chunk
            chunk, size = [], 0
    if chunk:
        yield chunk


def _reference_split_by_size(
    key_lengths: list[int], value_lengths: list[int], budget: int, close_after: bool
) -> list[int]:
    """The two loops over stand-in entries of the given lengths, as end indices."""
    pairs = [(bytes(k), bytes(v)) for k, v in zip(key_lengths, value_lengths, strict=True)]
    if close_after:
        return _stops(list(_reference_chunk_pairs(pairs, budget)))
    return _stops(_reference_blocks(pairs, budget))


def _reference_merge_tables(
    self: LSMStore, newer: list[SSTable], older: list[SSTable], drop_tombstones: bool
) -> tuple[list[bytes], list[bytes]]:
    """``LSMStore._merge_tables``: ``heapq.merge`` over per-entry tuples.

    Returned as the key and value columns ``_compact_level`` now takes.
    """
    runs = [
        list(chain.from_iterable(t.blocks()))
        for t in list(reversed(older)) + list(reversed(newer))
    ]

    def tag(run: Pairs, seq: int) -> Iterator[tuple[bytes, int, bytes]]:
        # A function (not a nested genexp) so ``seq`` is bound per run.
        return ((k, seq, v) for k, v in run)

    # Ties sort by run sequence (oldest run first), so the last entry
    # seen for a key is the newest — it overwrites in place.
    items: Pairs = []
    last_key: bytes | None = None
    for key, __, value in heapq.merge(*(tag(run, seq) for seq, run in enumerate(runs))):
        if key == last_key:
            items[-1] = (key, value)
        else:
            items.append((key, value))
            last_key = key
    self.clock.charge_background(
        self.costs.compare_cost(len(items)) + self.costs.copy_cost(len(items) * 16)
    )
    if drop_tombstones:
        items = [(k, v) for k, v in items if v != TOMBSTONE]
    return _columns(items)


def _install_references(monkeypatch) -> None:
    monkeypatch.setattr(BloomFilter, "add_many", _reference_add_many)
    monkeypatch.setattr(sstable_module, "split_by_size", _reference_split_by_size)
    monkeypatch.setattr(store_module, "split_by_size", _reference_split_by_size)
    monkeypatch.setattr(LSMStore, "_merge_tables", _reference_merge_tables)


# ----------------------------------------------------------------------
# (a) the bloom kernel sets exactly the bits a loop of ``add`` sets
# ----------------------------------------------------------------------
def _both_filters(
    keys: list[bytes], bits_per_key: int, already: list[bytes]
) -> tuple[bytearray, bytearray]:
    want = BloomFilter(len(keys), bits_per_key)
    got = BloomFilter(len(keys), bits_per_key)
    for key in already:
        want.add(key)
        got.add(key)
    _reference_add_many(want, keys)
    got.add_many(keys)
    return got._bits, want._bits


_keys = st.lists(st.binary(min_size=0, max_size=40), max_size=60)


@settings(max_examples=150, deadline=None)
@given(
    keys=_keys,
    bits_per_key=st.integers(1, 16),
    already=st.lists(st.binary(max_size=12), max_size=5),
    lane_batch=st.sampled_from([1, 2, 3, 7, bloom_module._LANE_BATCH]),
)
def test_add_many_sets_the_bits_of_a_loop_of_add(keys, bits_per_key, already, lane_batch):
    # A small lane batch puts the batch boundary inside hypothesis-sized
    # inputs; empty keys, duplicates and mixed lengths come from ``_keys``.
    saved = bloom_module._LANE_BATCH
    bloom_module._LANE_BATCH = lane_batch
    try:
        got, want = _both_filters(keys, bits_per_key, already)
    finally:
        bloom_module._LANE_BATCH = saved
    assert got == want


@pytest.mark.parametrize("extra", [-1, 0, 1])
@pytest.mark.parametrize("bits_per_key", [5, 10])  # 3 hashes (odd) and 6 (even)
def test_add_many_at_the_lane_batch_boundary(extra, bits_per_key):
    rng = random.Random(extra * 31 + bits_per_key)
    count = bloom_module._LANE_BATCH + extra
    keys = [rng.randbytes(8) for __ in range(count)] + [b"", b"odd-length-key"]
    got, want = _both_filters(keys, bits_per_key, already=[b"earlier"])
    assert got == want


def test_add_many_with_an_odd_number_of_hashes():
    # Rounds are decoded in pairs; an odd count must not mark a round too many.
    for bits_per_key in (1, 5, 8, 11, 16):
        keys = [b"k%04d" % i for i in range(300)]
        assert BloomFilter(1, bits_per_key).num_hashes % 2 == 1
        got, want = _both_filters(keys, bits_per_key, already=[])
        assert got == want


def test_built_filter_admits_every_key():
    keys = [b"key-%05d" % i for i in range(5000)]
    built = BloomFilter.build(iter(keys), bits_per_key=10)
    assert all(built.may_contain(key) for key in keys)


# ----------------------------------------------------------------------
# (b) cuts, block codec and merge against the loops they replaced
# ----------------------------------------------------------------------
_values = st.one_of(
    st.binary(max_size=30), st.just(TOMBSTONE), st.binary(min_size=90, max_size=120)
)
_pairs = st.dictionaries(st.binary(max_size=12), _values, max_size=80).map(
    lambda d: sorted(d.items())
)


@settings(max_examples=200, deadline=None)
@given(pairs=_pairs.filter(bool), budget=st.integers(1, 400))
def test_cuts_match_both_reference_loops(pairs, budget):
    # Budgets from 1 byte up: entries larger than the budget, budgets hit
    # exactly, a single entry, tombstone-sized values.
    lengths = _lengths(pairs)
    assert split_by_size(*lengths, budget, close_after=False) == _stops(
        _reference_blocks(pairs, budget)
    )
    assert split_by_size(*lengths, budget, close_after=True) == _stops(
        list(_reference_chunk_pairs(pairs, budget))
    )


@pytest.mark.parametrize("sizes", [[10, 10, 10], [10, 20, 10, 20], [40], [5, 35, 40, 1]])
def test_cut_rules_when_the_budget_is_hit_exactly(sizes):
    # Entry size is 6 + len(key) + len(value); keys are one byte.
    pairs = [(bytes([i]), b"v" * (size - 7)) for i, size in enumerate(sizes)]
    lengths = _lengths(pairs)
    for budget in (sizes[0], sizes[0] + sizes[-1], sum(sizes) - 1, sum(sizes), sum(sizes) + 1):
        assert split_by_size(*lengths, budget, close_after=False) == _stops(
            _reference_blocks(pairs, budget)
        )
        assert split_by_size(*lengths, budget, close_after=True) == _stops(
            list(_reference_chunk_pairs(pairs, budget))
        )


def test_the_two_closing_rules_differ():
    pairs = [(bytes([i]), b"v" * 3) for i in range(4)]  # 10 bytes each
    before = split_by_size(*_lengths(pairs), 25, close_after=False)
    after = split_by_size(*_lengths(pairs), 25, close_after=True)
    assert before == [2, 4]  # closes before the overflowing entry
    assert after == [3, 4]  # closes after the entry reaching 25
    assert split_by_size([], [], 25, close_after=True) == []


@settings(max_examples=150, deadline=None)
@given(entries=st.lists(st.tuples(st.binary(max_size=40), _values), max_size=40))
def test_block_codec_matches_reference_and_round_trips(entries):
    # Any entries, sorted or not: the codec does not look at the keys.
    blob = _encode(entries)
    row = row_encode_block(entries)
    assert row == _reference_encode_block(entries)
    assert len(blob) == len(row)
    assert run_pairs(blob, len(entries)) == row_decode_block(row) == entries
    assert run_fits(blob, len(entries))


def test_block_codec_round_trips_the_empty_block():
    assert encode_run([], [], [], []) == b""
    assert run_pairs(b"", 0) == []
    assert run_fits(b"", 0)


def test_a_count_that_does_not_match_the_columns_does_not_fit():
    runtime = EngineRuntime()
    rng = random.Random(3)
    pairs = [(b"%06d" % i, rng.randbytes(rng.randrange(0, 90))) for i in range(600)]
    table = _build(1, runtime, pairs, block_size=512)
    assert table.block_count > 10
    for offset, count in zip(table._block_offsets, table._block_counts, strict=True):
        blob = runtime.disk.read(offset)
        assert run_fits(blob, count)
        for wrong in (count - 1, count + 1, 0, -1, len(blob), 1 << 40):
            assert not run_fits(blob, wrong)


def _store_with_tables(
    runs: list[Pairs], split: int
) -> tuple[LSMStore, list[SSTable], list[SSTable]]:
    """A fresh world holding one table per run; the first ``split`` are 'newer'."""
    runtime = EngineRuntime()
    store = LSMStore(runtime, LSMConfig(block_size=256))
    tables = [_build(i + 1, runtime, run, block_size=256) for i, run in enumerate(runs)]
    return store, tables[:split], tables[split:]


def _world_state(store: LSMStore) -> tuple:
    return (
        store.clock.cpu_ns,
        store.clock.background_ns,
        store.disk.busy_ns,
        store.disk.stats.snapshot(),
    )


@settings(max_examples=120, deadline=None)
@given(
    runs=st.lists(_pairs.filter(bool), min_size=1, max_size=6),
    split=st.integers(0, 6),
    drop_tombstones=st.booleans(),
)
def test_merge_matches_the_heapq_reference(runs, split, drop_tombstones):
    # ``_pairs`` draws keys from a small space, so keys repeat across runs
    # and tombstones shadow (and are shadowed by) live values.
    split = min(split, len(runs))
    store, newer, older = _store_with_tables(runs, split)
    got = store._merge_tables(newer, older, drop_tombstones)
    ref_store, ref_newer, ref_older = _store_with_tables(runs, split)
    want = _reference_merge_tables(ref_store, ref_newer, ref_older, drop_tombstones)
    assert got == want
    # Same requests in the same order, same charge: bit-equal accounts.
    assert _world_state(store) == _world_state(ref_store)


def test_merge_newest_run_wins_and_charges_before_dropping_tombstones():
    old = [(b"a", b"old"), (b"b", b"old"), (b"c", TOMBSTONE)]
    mid = [(b"b", TOMBSTONE), (b"c", b"mid")]
    new = [(b"a", b"new"), (b"d", TOMBSTONE)]
    store, newer, older = _store_with_tables([new, mid, old], split=2)
    before = store.clock.background_ns
    merged = store._merge_tables(newer, older, drop_tombstones=True)
    assert merged == ([b"a", b"c"], [b"new", b"mid"])
    # Four distinct keys were merged; two tombstones dropped afterwards.
    want = store.costs.compare_cost(4) + store.costs.copy_cost(4 * 16)
    assert store.clock.background_ns - before == want


def test_build_sums_copy_cost_block_by_block():
    # ``copy_cost(total)`` is a different float from the per-block sum; a
    # whole-run clock is too coarse to show it, one table's charge is not.
    runtime = EngineRuntime()
    rng = random.Random(5)
    pairs = [(b"%06d" % i, rng.randbytes(rng.randrange(1, 90))) for i in range(2000)]
    table = _build(1, runtime, pairs, block_size=256)
    want = 0.0
    for block in _reference_blocks(pairs, 256):
        want += runtime.costs.copy_cost(len(_reference_encode_block(block)))
    assert runtime.clock.background_ns == want
    assert want != runtime.costs.copy_cost(table.data_bytes)  # the pin can tell them apart


# ----------------------------------------------------------------------
# (c) the disk image of a whole run
# ----------------------------------------------------------------------
def _spill_store() -> tuple[EngineRuntime, LSMStore, IndeXY]:
    """The seeded 64 KiB spill run: inserts, overwrites and deletes, no reads."""
    # An ART-LSM engine with a small memtable and level 1, assembled by
    # hand: the systems size their stores from the memory limit alone.
    runtime = EngineRuntime()
    store = LSMStore(
        runtime,
        LSMConfig(memtable_bytes=16 * 1024, block_cache_bytes=64 * 1024, level1_bytes=64 * 1024),
    )
    x = AdaptiveRadixTree(clock=runtime.clock, costs=runtime.costs)
    index = IndeXY(x, store, IndeXYConfig(memory_limit_bytes=64 * 1024), runtime)
    rng = random.Random(19)
    keys = rng.sample(range(1 << 40), 6000)
    for i, key in enumerate(keys):
        index.insert(encode_int(key), b"%05d" % i + b"v" * (20 + i % 90))
        if i % 7 == 3:
            index.insert(encode_int(keys[rng.randrange(i + 1)]), b"overwrite-%d" % i)
        if i % 11 == 5:
            index.delete(encode_int(keys[rng.randrange(i + 1)]))
    index.flush()
    store.flush()
    assert store.stats["compactions"] >= 3
    assert sum(1 for level in store.levels if level) >= 2
    return runtime, store, index


def _spill_run() -> tuple:
    runtime, store, index = _spill_store()
    tables = [
        (
            t.table_id, level, t.min_key, t.max_key, t.entry_count, t.data_bytes,
            t._block_offsets, t._block_first_keys, t._block_counts, bytes(t.bloom._bits),
        )
        for level, level_tables in enumerate(store.levels)
        for t in level_tables
    ]  # fmt: skip
    accounts = (
        runtime.disk.stats.snapshot(),
        runtime.disk.busy_ns,
        runtime.clock.cpu_ns,
        runtime.clock.background_ns,
        store.stats.snapshot(),
        index.scan(encode_int(0), 10_000),
    )
    # The blocks themselves, read after the accounts are taken: each block's
    # length and its decoded entries, never its bytes.
    live = [t for level_tables in store.levels for t in level_tables]
    lengths = [len(runtime.disk.read(at)) for t in live for at in t._block_offsets]
    blocks = [list(t.blocks()) for t in live]
    return tables, *accounts, lengths, blocks


def test_disk_image_matches_the_per_entry_references(monkeypatch):
    # The reference world runs the replaced per-entry kernels and the row
    # codec: a block's bytes differ, nothing sized or decoded from it may.
    got = _spill_run()
    _install_references(monkeypatch)
    _install_row_codec(monkeypatch)
    runtime = EngineRuntime()
    two = [(b"a", b"1"), (b"b", b"22")]  # one entry is the same in both layouts
    assert runtime.disk.read(_build(1, runtime, two)._block_offsets[0]) == row_encode_block(two)
    want = _spill_run()
    for produced, expected in zip(got, want, strict=True):
        assert produced == expected


# ----------------------------------------------------------------------
# (d) the point read's kernels against decode-then-bisect and the per-table hash
# ----------------------------------------------------------------------
def _reference_find(blob: bytes, key: bytes) -> Optional[bytes]:
    """``SSTable.get``'s in-block search on a row block: decode every entry, bisect."""
    entries = row_decode_block(blob)
    i = bisect_left(entries, (key, b""))
    if i < len(entries) and entries[i][0] == key:
        return entries[i][1]
    return None


def _reference_may_contain(bloom: BloomFilter, key: bytes) -> bool:
    """``BloomFilter.may_contain`` with its own FNV-1a loop."""
    h = 0xCBF29CE484222325
    for byte in key:
        h = ((h ^ byte) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    delta = ((h >> 33) | (h << 31)) & 0xFFFFFFFFFFFFFFFF | 1
    for __ in range(bloom.num_hashes):
        pos = h % bloom.num_bits
        if not bloom._bits[pos >> 3] & (1 << (pos & 7)):
            return False
        h = (h + delta) & 0xFFFFFFFFFFFFFFFF
    return True


#: keys that also turn up *inside* values, as whole encoded entries or
#: blocks of either layout: a walk that lost its place, or a byte search,
#: would find them there.
_DECOYS = [b"", b"k", b"kk", b"decoy-key"]
_block_keys = st.one_of(st.binary(max_size=12), st.sampled_from(_DECOYS))
_entry_shaped = st.tuples(st.sampled_from(_DECOYS), st.binary(max_size=8)).flatmap(
    lambda entry: st.sampled_from([row_encode_block([entry]), _encode([entry])])
)
_block_entries = st.dictionaries(
    _block_keys, st.one_of(_values, st.just(b""), _entry_shaped), max_size=40
).map(lambda d: sorted(d.items()))


def _search_both(entries: Pairs, keys: list[bytes]) -> list[Optional[bytes]]:
    """``find_value`` of ``keys`` in ``entries``' block, checked against the row block."""
    blob = _encode(entries)
    row = row_encode_block(entries)
    assert len(blob) == len(row)
    found = [_search(blob, len(entries), key) for key in keys]
    assert found == [row_search_block(row, key) for key in keys]
    assert found == [_reference_find(row, key) for key in keys]
    return found


@settings(max_examples=300, deadline=None)
@given(entries=_block_entries, probes=st.lists(_block_keys, max_size=8))
def test_search_block_matches_decode_then_bisect(entries, probes):
    keys = [key for key, __ in entries]
    # Every stored key, its neighbours in byte order (a prefix of it, an
    # extension of it), the decoys and arbitrary probes: below the first,
    # between two and above the last entry all occur.
    around = [key[:-1] for key in keys] + [key + b"\x00" for key in keys]
    _search_both(entries, keys + around + _DECOYS + probes)
    assert _search_both(entries, keys) == [value for __, value in entries]


def test_search_block_is_not_fooled_by_the_key_inside_an_earlier_value():
    target = b"m-target"
    for decoy in (
        _ROW_HEADER.pack(len(target), 4) + target + b"fake",
        _encode([(target, b"fake")]),
        _encode([(b"a", b""), (target, b"fake")]),
    ):
        present = [(b"a", decoy), (b"b", b""), (target, b"real"), (b"z", decoy)]
        absent = [(b"a", decoy), (b"b", b""), (b"z", decoy)]
        # the empty value is a value, not a miss
        assert _search_both(present, [target, b"b"]) == [b"real", b""]
        assert _search_both(absent, [target]) == [None]


def test_search_block_edges():
    assert _search_both([], [b"k", b""]) == [None, None]
    prefix = [(b"ab", b"1"), (b"abc", b"2"), (b"abd", TOMBSTONE)]
    assert _search_both(prefix, [b"a", b"ab", b"abc", b"abcd", b"abd", b"abe"]) == [
        None, b"1", b"2", None, TOMBSTONE, None,
    ]  # fmt: skip
    oversize = [(b"big", b"v" * 10_000)]  # a block of its own, whatever the budget
    assert _search_both(oversize, [b"big", b"bif", b"bih"]) == [b"v" * 10_000, None, None]
    empty_key = [(b"", b"first"), (b"\x00", b""), (b"a", b"x")]
    assert _search_both(empty_key, [b"", b"\x00", b"\x00\x00", b"a"]) == [
        b"first", b"", None, b"x",
    ]  # fmt: skip


@settings(max_examples=100, deadline=None)
@given(
    keys=st.lists(st.binary(max_size=12), min_size=1, max_size=60, unique=True),
    probes=st.lists(st.binary(max_size=12), max_size=60),
    shapes=st.lists(
        st.tuples(st.integers(1, 200), st.integers(1, 16)), min_size=1, max_size=4
    ),
)
def test_one_hash_pair_probes_every_filter_like_the_scalar_may_contain(keys, probes, shapes):
    # Filters of different ``num_bits`` / ``num_hashes``, undersized ones
    # among them, so absent keys come back both ways (false positives too).
    filters = []
    for expected_keys, bits_per_key in shapes:
        bloom = BloomFilter(expected_keys, bits_per_key)
        bloom.add_many(keys[::2])
        filters.append(bloom)
    for key in keys + probes:
        pair = hash_pair(key)
        for bloom in filters:
            want = _reference_may_contain(bloom, key)
            assert bloom.may_contain_hashed(pair) == want
            assert bloom.may_contain(key) == want
    assert all(bloom.may_contain_hashed(hash_pair(key)) for bloom in filters for key in keys[::2])


def test_false_positives_are_the_reference_ones():
    bloom = BloomFilter.build((b"key-%05d" % i for i in range(2000)), bits_per_key=4)
    absent = [b"nope-%05d" % i for i in range(4000)]
    want = [_reference_may_contain(bloom, key) for key in absent]
    assert 0 < sum(want) < len(want)  # some false positives, some negatives
    assert [bloom.may_contain_hashed(hash_pair(key)) for key in absent] == want


@settings(max_examples=100, deadline=None)
@given(pairs=_pairs.filter(bool), block_size=st.integers(1, 400))
def test_block_counts_are_the_decoded_lengths(pairs, block_size):
    # ``_pairs`` mixes 0..120-byte values, so small budgets give blocks of
    # one oversize entry next to blocks of many.
    runtime = EngineRuntime()
    table = _build(1, runtime, pairs, block_size=block_size)
    want = _reference_blocks(pairs, block_size)
    blobs = [runtime.disk.read(at) for at in table._block_offsets]
    assert table._block_counts == [len(block) for block in want]
    assert [len(blob) for blob in blobs] == [len(row_encode_block(block)) for block in want]
    assert [run_pairs(*b) for b in zip(blobs, table._block_counts, strict=True)] == want
    assert sum(table._block_counts) == table.entry_count == len(pairs)


# ----------------------------------------------------------------------
# (e) a whole store against the decode-per-miss read path
# ----------------------------------------------------------------------
def _reference_load_block(self: SSTable, index: int, block_cache: PolicyCache | None) -> Pairs:
    """``SSTable._load_block``: the cache holds the decoded list, decoded per miss."""
    cache_key = (self.table_id, index)
    if block_cache is not None:
        cached = block_cache.get(cache_key)
        if cached is not None:
            return cached
    blob = self._disk.read(self._block_offsets[index])
    entries = run_pairs(blob, self._block_counts[index])
    if block_cache is not None:
        block_cache.put(cache_key, entries, len(blob))
    return entries


def _reference_get(
    self: SSTable, key: bytes, pair: tuple[int, int], block_cache: PolicyCache | None = None
) -> Optional[bytes]:
    """``SSTable.get``: hashes the key itself (``pair`` is the new caller's)."""
    self._clock.charge_cpu(self._costs.bloom_probe)
    if key < self.min_key or key > self.max_key:
        return None
    if not _reference_may_contain(self.bloom, key):
        return None
    index = max(bisect_right(self._block_first_keys, key) - 1, 0)
    entries = _reference_load_block(self, index, block_cache)
    comparisons = max(1, int(math.log2(len(entries) + 1)))
    self._clock.charge_cpu(self._costs.compare_cost(comparisons) + self._costs.hash_probe)
    i = bisect_left(entries, (key, b""))
    if i < len(entries) and entries[i][0] == key:
        return entries[i][1]
    return None


def _reference_table_blocks(
    self: SSTable, first: int = 0, block_cache: PolicyCache | None = None
) -> Iterator[Pairs]:
    """``SSTable.blocks``."""
    for index in range(first, len(self._block_offsets)):
        yield _reference_load_block(self, index, block_cache)


def _read_run(block_policy: str, row_cache_bytes: int) -> tuple:
    """Puts, deletes, flushes, gets and scans on one store; everything observable."""
    store = LSMStore(
        EngineRuntime(),
        LSMConfig(
            memtable_bytes=4 * 1024, block_size=512, block_cache_bytes=6 * 1024,
            block_cache_policy=block_policy, row_cache_bytes=row_cache_bytes,
            level0_table_limit=2, level1_bytes=16 * 1024,
        ),
    )  # fmt: skip
    evicted: list = []
    pick = store.block_cache.policy.evict_candidate

    def logged_pick():
        victim = pick()
        evicted.append(victim)
        return victim

    store.block_cache.policy.evict_candidate = logged_pick
    rng = random.Random(22)

    def key_of(n: int) -> bytes:
        return b"%07d" % n

    live: list[int] = []  # sorted, so a key's neighbour is its likely block-mate
    dead: list[int] = []
    returned: list = []
    for step in range(4000):
        n = rng.randrange(1 << 20)
        store.put(key_of(n), rng.randbytes(rng.randrange(0, 60)))
        insort(live, n)
        if step % 9 == 4:
            victim = live.pop(rng.randrange(len(live)))
            store.delete(key_of(victim))
            dead.append(victim)
        if step % 5 == 1:
            # present, absent and deleted keys; ``near`` shares a block with
            # ``hot`` more often than not, so cached blocks see get -> get,
            # get -> scan and scan -> get.
            at = rng.randrange(1, len(live))
            hot, near = live[at], live[at - 1]
            for probe in (hot, hot, near, rng.randrange(1 << 20), rng.choice(dead or [0])):
                returned.append(store.get(key_of(probe)))
            returned.append(store.scan(key_of(hot), 3))
            returned.append(store.get(key_of(near)))
            returned.append(store.scan(key_of(rng.randrange(1 << 20)), 12))
            returned.append(store.get(key_of(hot)))
    assert store.stats["compactions"] >= 3
    cache = store.block_cache
    assert cache.hits > 100 and cache.evictions > 100
    return (
        returned,
        store.clock.cpu_ns,
        store.clock.background_ns,
        store.disk.stats.snapshot(),
        store.disk.busy_ns,
        (cache.hits, cache.misses, cache.evictions, cache.used_bytes),
        evicted,
        store.row_cache and (store.row_cache.hits, store.row_cache.misses),
        store.memory_bytes,
    )


@pytest.mark.parametrize(
    "block_policy, row_cache_bytes", [("lru", 0), ("fifo", 0), ("lru", 4 * 1024)]
)
def test_store_reads_match_the_decode_per_miss_reference(
    monkeypatch, block_policy, row_cache_bytes
):
    got = _read_run(block_policy, row_cache_bytes)
    monkeypatch.setattr(SSTable, "get", _reference_get)
    monkeypatch.setattr(SSTable, "_load_block", _reference_load_block)
    monkeypatch.setattr(SSTable, "blocks", _reference_table_blocks)
    want = _read_run(block_policy, row_cache_bytes)
    for produced, expected in zip(got, want, strict=True):
        assert produced == expected


# ----------------------------------------------------------------------
# (f) the filter is built on first probe, with the bits the eager build set
# ----------------------------------------------------------------------
def test_unprobed_tables_build_no_filter_and_freed_ones_drop_their_blocks(monkeypatch):
    freed: list[SSTable] = []
    free = SSTable.free

    def logged_free(self: SSTable) -> None:
        freed.append(self)
        free(self)

    monkeypatch.setattr(SSTable, "free", logged_free)
    __, store, __ = _spill_store()
    live = [t for level in store.levels for t in level]
    assert live and len(freed) >= 3
    for table in live:
        assert "bloom" not in vars(table) and table._encoded is not None
    assert all(table._encoded is None for table in freed)


def test_forced_filter_has_the_bits_of_the_keys_filter():
    __, store, __ = _spill_store()
    for table in (t for level in store.levels for t in level):
        keys = [key for block in table.blocks() for key, __ in block]
        memory = table.index_memory_bytes()
        assert bytes(table.bloom._bits) == bytes(BloomFilter.build(keys)._bits)
        assert table._encoded is None  # built once; the blocks are dropped
        assert table.index_memory_bytes() == memory


def test_index_memory_bytes_does_not_depend_on_the_build():
    runtime = EngineRuntime()
    for count in range(1, 201):  # up to 6 keys the filter is the 64-bit floor
        pairs = [(b"%05d" % i, b"v" * (i % 7)) for i in range(count)]
        table = _build(count, runtime, pairs, block_size=256)
        before = table.index_memory_bytes()
        assert "bloom" not in vars(table)
        table.bloom.may_contain(pairs[0][0])
        assert table.index_memory_bytes() == before
        assert table.bloom.memory_bytes() == (max(64, 10 * count) + 7) // 8


def test_reads_match_the_eager_filter_build(monkeypatch):
    got = _read_run("lru", 0)
    build = SSTable.build

    def eager_build(table_id, disk, clock, costs, keys, values, *lengths, block_size=4096):
        """The eager ``SSTable.build``: the filter hashed from ``keys`` as the table is written."""
        table = build(table_id, disk, clock, costs, keys, values, *lengths, block_size=block_size)
        table.bloom = BloomFilter.build(keys, 10)
        return table

    monkeypatch.setattr(SSTable, "build", staticmethod(eager_build))
    want = _read_run("lru", 0)
    for produced, expected in zip(got, want, strict=True):
        assert produced == expected

"""Unit tests for LSM building blocks: bloom filter, LRU cache, memtable, sstable."""

import random
from itertools import chain

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import encode_int
from repro.lsm import BloomFilter, MemTable, PolicyCache, SSTable
from repro.lsm.bloom import fnv1a, hash_pair
from repro.columns import encode_run, run_pairs
from repro.sim import CostModel, SimClock, SimDisk


def ikey(i: int) -> bytes:
    return encode_int(i)


# ----------------------------------------------------------------------
# bloom filter
# ----------------------------------------------------------------------
def test_fnv1a_is_deterministic():
    assert fnv1a(b"hello") == fnv1a(b"hello")
    assert fnv1a(b"hello") != fnv1a(b"hellp")


def test_bloom_no_false_negatives():
    keys = [ikey(i * 13) for i in range(500)]
    bloom = BloomFilter.build(keys)
    assert all(bloom.may_contain(k) for k in keys)


def test_bloom_false_positive_rate_is_low():
    keys = [ikey(i) for i in range(2000)]
    bloom = BloomFilter.build(keys, bits_per_key=10)
    false_positives = sum(
        bloom.may_contain(ikey(i)) for i in range(10_000, 20_000)
    )
    assert false_positives / 10_000 < 0.05


def test_bloom_handles_empty_expectation():
    bloom = BloomFilter(expected_keys=0)
    bloom.add(b"x")
    assert bloom.may_contain(b"x")


# ----------------------------------------------------------------------
# LRU cache
# ----------------------------------------------------------------------
def test_lru_get_put():
    cache = PolicyCache(100)
    cache.put("a", 1, 10)
    assert cache.get("a") == 1
    assert cache.get("b") is None
    assert cache.hits == 1 and cache.misses == 1


def test_lru_evicts_least_recent():
    cache = PolicyCache(30)
    cache.put("a", 1, 10)
    cache.put("b", 2, 10)
    cache.put("c", 3, 10)
    cache.get("a")  # refresh a
    cache.put("d", 4, 10)  # evicts b
    assert cache.get("b") is None
    assert cache.get("a") == 1
    assert cache.evictions == 1


def test_lru_oversized_entry_skipped():
    cache = PolicyCache(10)
    cache.put("big", 1, 100)
    assert cache.get("big") is None
    assert cache.used_bytes == 0


def test_lru_replace_updates_bytes():
    cache = PolicyCache(100)
    cache.put("a", 1, 10)
    cache.put("a", 2, 30)
    assert cache.used_bytes == 30
    assert cache.get("a") == 2


def test_lru_invalidate():
    cache = PolicyCache(100)
    cache.put("a", 1, 10)
    cache.invalidate("a")
    assert cache.get("a") is None
    assert cache.used_bytes == 0


def test_lru_rejects_negative_capacity():
    with pytest.raises(ValueError):
        PolicyCache(-1)


# ----------------------------------------------------------------------
# memtable
# ----------------------------------------------------------------------
def make_memtable(clock=None):
    return MemTable(clock or SimClock(), CostModel())


def test_memtable_put_get():
    table = make_memtable()
    table.put(ikey(5), b"five")
    assert table.get(ikey(5)) == b"five"
    assert table.get(ikey(6)) is None
    assert len(table) == 1


def test_memtable_overwrite_updates_size():
    table = make_memtable()
    table.put(ikey(1), b"short")
    size = table.size_bytes
    table.put(ikey(1), b"a-longer-value")
    assert table.size_bytes == size + len(b"a-longer-value") - len(b"short")
    assert len(table) == 1


def test_memtable_items_sorted():
    table = make_memtable()
    keys = random.Random(3).sample(range(10**6), 400)
    for k in keys:
        table.put(ikey(k), b"v")
    out = [k for k, __ in table.items()]
    assert out == sorted(out) and len(out) == 400


def test_memtable_items_from_start():
    table = make_memtable()
    for k in range(0, 100, 10):
        table.put(ikey(k), b"v")
    out = [k for k, __ in table.items(start=ikey(35))]
    assert out[0] == ikey(40)


def test_memtable_charges_cpu():
    clock = SimClock()
    table = make_memtable(clock)
    table.put(ikey(1), b"v")
    assert clock.cpu_ns > 0


def test_memtable_deterministic_across_instances():
    a, b = make_memtable(), make_memtable()
    for k in range(100):
        a.put(ikey(k), b"v")
        b.put(ikey(k), b"v")
    assert a.size_bytes == b.size_bytes


# ----------------------------------------------------------------------
# block codec
# ----------------------------------------------------------------------
@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.binary(min_size=1, max_size=40), st.binary(max_size=200)),
        max_size=50,
    )
)
def test_block_codec_roundtrip(entries):
    keys = [key for key, __ in entries]
    values = [value for __, value in entries]
    blob = encode_run(keys, values, list(map(len, keys)), list(map(len, values)))
    assert run_pairs(blob, len(entries)) == entries


# ----------------------------------------------------------------------
# sstable
# ----------------------------------------------------------------------
@pytest.fixture
def disk():
    return SimDisk()


def build_table(table_id, disk, pairs, **kwargs):
    keys = [key for key, __ in pairs]
    values = [value for __, value in pairs]
    lengths = list(map(len, keys)), list(map(len, values))
    return SSTable.build(table_id, disk, SimClock(), CostModel(), keys, values, *lengths, **kwargs)


def make_table(disk, n=1000, value=b"value", table_id=1, **kwargs):
    pairs = [(ikey(i * 3), value) for i in range(n)]
    return build_table(table_id, disk, pairs, **kwargs), pairs


def test_sstable_point_lookups(disk):
    table, pairs = make_table(disk)
    for key, value in pairs[::37]:
        assert table.get(key, hash_pair(key)) == value


def test_sstable_missing_key_returns_none(disk):
    table, __ = make_table(disk)
    for key in (ikey(1), ikey(10**9)):  # between stored keys; beyond max
        assert table.get(key, hash_pair(key)) is None


def test_sstable_build_rejects_empty(disk):
    with pytest.raises(ValueError):
        build_table(1, disk, [])


def test_sstable_writes_are_sequential(disk):
    make_table(disk, n=5000)
    assert disk.stats["rand_writes"] == 1  # only the first block seeks
    assert disk.stats["seq_writes"] == disk.stats["writes"] - 1


def test_sstable_iteration_is_sorted(disk):
    table, pairs = make_table(disk, n=2000)
    assert list(chain.from_iterable(table.blocks())) == pairs


def test_sstable_iter_from_start(disk):
    table, pairs = make_table(disk, n=100)
    start = pairs[40][0]
    assert list(table.iter_from(start)) == pairs[40:]


def test_sstable_iter_from_any_start_matches_the_filter(disk):
    table, pairs = make_table(disk, n=2000)
    assert table.block_count > 3
    for probe in (0, 1, 2, 3, 601, 2999, 3000, 5997, 5998, 10**6):
        start = ikey(probe)  # on a key, between keys, before the first, past the last
        assert list(table.iter_from(start)) == [p for p in pairs if p[0] >= start]


def test_sstable_iter_from_loads_a_block_only_when_reached(disk):
    table, pairs = make_table(disk, n=2000)
    per_block = len(next(table.blocks()))
    reads = disk.stats["reads"]
    entries = table.iter_from(pairs[per_block + 5][0])  # starts inside the second block
    assert disk.stats["reads"] == reads  # creating the iterator loads nothing
    for __ in range(per_block - 5):  # the rest of that block
        next(entries)
    assert disk.stats["reads"] == reads + 1
    assert next(entries) == pairs[2 * per_block]
    assert disk.stats["reads"] == reads + 2


def test_sstable_block_cache_avoids_repeat_io(disk):
    table, pairs = make_table(disk)
    cache = PolicyCache(1 << 20)
    table.get(pairs[0][0], hash_pair(pairs[0][0]), cache)
    reads_after_first = disk.stats["reads"]
    table.get(pairs[0][0], hash_pair(pairs[0][0]), cache)
    assert disk.stats["reads"] == reads_after_first


def test_sstable_bloom_prevents_io_on_miss(disk):
    table, __ = make_table(disk)
    reads_before = disk.stats["reads"]
    for probe in range(1, 2000, 3):  # keys not present (non-multiples of 3)
        key = ikey(probe if probe % 3 else probe + 1)
        table.get(key, hash_pair(key))
    # With 10 bits/key the vast majority of misses never touch the disk.
    assert disk.stats["reads"] - reads_before < 100


def test_sstable_overlap_checks(disk):
    a, __ = make_table(disk, n=10, table_id=1)
    pairs_b = [(ikey(10**6 + i), b"v") for i in range(10)]
    b = build_table(2, disk, pairs_b)
    assert not a.overlaps_range(b.min_key, b.max_key)
    assert a.overlaps_range(a.min_key, a.max_key)
    assert a.overlaps_range(ikey(0), ikey(5))
    assert not a.overlaps_range(ikey(10**7), ikey(10**8))


def test_sstable_free_releases_disk_space(disk):
    table, __ = make_table(disk, n=2000)
    used = disk.used_bytes
    assert used > 0
    table.free()
    assert disk.used_bytes == 0


def test_sstable_respects_block_size(disk):
    table, __ = make_table(disk, n=3000, block_size=1024)
    small_blocks = table.block_count
    table2, __ = make_table(disk, n=3000, table_id=2, block_size=8192)
    assert small_blocks > table2.block_count

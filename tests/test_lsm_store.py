"""Unit and property tests for the leveled LSM store."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import encode_int
from repro.lsm import LSMConfig, LSMStore
from repro.lsm.store import MAX_LEVELS
from repro.sim import EngineRuntime


def ikey(i: int) -> bytes:
    return encode_int(i)


def small_config(**overrides) -> LSMConfig:
    """A tiny configuration that exercises flush + compaction quickly."""
    defaults = dict(
        memtable_bytes=4 * 1024,
        block_size=1024,
        block_cache_bytes=8 * 1024,
        level0_table_limit=2,
        level1_bytes=16 * 1024,
        level_size_multiplier=4,
    )
    defaults.update(overrides)
    return LSMConfig(**defaults)


@pytest.fixture
def store():
    return LSMStore(EngineRuntime(), small_config())


def test_put_get_in_memtable(store):
    store.put(ikey(1), b"one")
    assert store.get(ikey(1)) == b"one"
    assert store.get(ikey(2)) is None


def test_flush_creates_sstable(store):
    for i in range(500):
        store.put(ikey(i), b"v" * 8)
    assert store.stats["flushes"] > 0
    assert store.table_count > 0
    for i in range(0, 500, 29):
        assert store.get(ikey(i)) == b"v" * 8


def test_explicit_flush_drains_memtable(store):
    store.put(ikey(1), b"v")
    store.flush()
    assert store.get(ikey(1)) == b"v"
    store.flush()  # empty flush is a no-op
    assert store.stats["flushes"] == 1


def test_compaction_triggers_and_preserves_data(store):
    n = 4000
    rng = random.Random(5)
    keys = rng.sample(range(10**7), n)
    for k in keys:
        store.put(ikey(k), str(k).encode())
    assert store.stats["compactions"] > 0
    for k in keys[::97]:
        assert store.get(ikey(k)) == str(k).encode()


def test_levels_1plus_are_disjoint_and_sorted(store):
    rng = random.Random(7)
    for k in rng.sample(range(10**7), 5000):
        store.put(ikey(k), b"v" * 16)
    for level in range(1, MAX_LEVELS):
        tables = store.levels[level]
        for a, b in zip(tables, tables[1:]):
            assert a.max_key < b.min_key


def test_overwrite_newest_wins_across_levels(store):
    for round_no in range(4):
        for k in range(200):
            store.put(ikey(k), b"round-%d" % round_no)
        store.flush()
    for k in range(0, 200, 17):
        assert store.get(ikey(k)) == b"round-3"


def test_delete_hides_key(store):
    for k in range(300):
        store.put(ikey(k), b"v")
    store.flush()
    store.delete(ikey(7))
    assert store.get(ikey(7)) is None
    store.flush()
    assert store.get(ikey(7)) is None


def test_tombstones_dropped_at_bottom(store):
    for k in range(2000):
        store.put(ikey(k), b"value-16-bytes!!")
    for k in range(2000):
        store.delete(ikey(k))
    # Push everything down through repeated flush/compaction.
    for k in range(2000, 4000):
        store.put(ikey(k), b"value-16-bytes!!")
    for k in range(100):
        assert store.get(ikey(k)) is None


def test_scan_merges_memtable_and_levels(store):
    for k in range(0, 100, 2):  # evens, flushed
        store.put(ikey(k), b"old")
    store.flush()
    for k in range(1, 100, 2):  # odds, still in memtable
        store.put(ikey(k), b"new")
    got = store.scan(ikey(10), 10)
    assert [k for k, __ in got] == [ikey(10 + i) for i in range(10)]


def test_scan_respects_overwrites(store):
    for k in range(50):
        store.put(ikey(k), b"old")
    store.flush()
    store.put(ikey(5), b"new")
    got = dict(store.scan(ikey(5), 1))
    assert got[ikey(5)] == b"new"


def test_scan_newest_version_wins_over_flushed_tombstone(store):
    """Regression: a delete-then-reinsert across a flush boundary must scan.

    The merge tags each source with a sequence number (lower = newer).  A
    late-binding bug in the tagging genexp once gave every source the same
    final seq, so key ties broke on value bytes — and TOMBSTONE's leading
    ``\\x00`` made a stale flushed tombstone shadow the memtable's fresh
    value, silently dropping the key from scans (while ``get`` stayed
    correct).
    """
    store.put(ikey(1), b"first")
    store.delete(ikey(1))  # tombstone, flushed to L0 below
    store.flush()
    store.put(ikey(1), b"fresh")  # reinsert lives only in the memtable
    assert store.get(ikey(1)) == b"fresh"
    got = dict(store.scan(ikey(0), 10))
    assert got.get(ikey(1)) == b"fresh"


def test_scan_skips_tombstones(store):
    for k in range(20):
        store.put(ikey(k), b"v")
    store.flush()
    store.delete(ikey(3))
    got = store.scan(ikey(0), 20)
    assert ikey(3) not in dict(got)
    assert len(got) == 19


def test_find_table_memo_survives_level_reshape(store):
    """Regression for the per-level min-key memo in ``_find_table``.

    The memo caches each level's table boundaries so point reads stop
    rebuilding a list per probe; it must be invalidated whenever a flush
    or compaction reshapes a level, or reads route to stale tables.
    """
    for k in range(0, 600, 2):
        store.put(ikey(k), b"a" * 16)
    # Prime the memo on every level with reads...
    for k in range(0, 600, 20):
        assert store.get(ikey(k)) == b"a" * 16
    # ...then reshape the levels with interleaved keys and overwrites.
    for k in range(1, 600, 2):
        store.put(ikey(k), b"b" * 16)
    for k in range(0, 600, 4):
        store.put(ikey(k), b"c" * 16)
    store.flush()
    for k in range(0, 600, 3):
        expected = b"c" * 16 if k % 4 == 0 else (b"a" * 16 if k % 2 == 0 else b"b" * 16)
        assert store.get(ikey(k)) == expected, k
    # The invariant the invalidation maintains: a present memo always
    # mirrors the live table boundaries of its level.
    for level in range(1, MAX_LEVELS):
        memo = store._min_keys[level]
        if memo is not None:
            assert memo == [t.min_key for t in store.levels[level]], level


def test_writes_are_mostly_sequential_under_random_puts(store):
    rng = random.Random(11)
    for k in rng.sample(range(10**7), 6000):
        store.put(ikey(k), b"v" * 16)
    stats = store.disk.stats
    # With the tiny 4 KB test memtable each table is only ~4 blocks, yet
    # sequential writes still dominate ~8:1; production-sized memtables
    # push this far higher (see the Figure 3 benchmark).
    assert stats["seq_writes"] > 5 * stats["rand_writes"]


def test_row_cache_serves_repeat_reads():
    store = LSMStore(EngineRuntime(), small_config(row_cache_bytes=64 * 1024))
    for k in range(1000):
        store.put(ikey(k), b"v" * 8)
    store.flush()
    store.get(ikey(1))
    reads = store.disk.stats["reads"]
    store.get(ikey(1))
    assert store.disk.stats["reads"] == reads
    assert store.stats["row_cache_hits"] >= 1


def test_memory_accounting_is_bounded(store):
    rng = random.Random(13)
    for k in rng.sample(range(10**7), 4000):
        store.put(ikey(k), b"v" * 16)
    # MemTable + caches + per-table index/bloom: far below the data size.
    assert store.memory_bytes < store.disk_bytes


def test_disk_space_reclaimed_by_compaction(store):
    rng = random.Random(17)
    for round_no in range(3):
        for k in rng.sample(range(2000), 2000):
            store.put(ikey(k), b"%d" % round_no * 8)
    # Overwrites collapse during compaction: live disk bytes stay near one
    # copy of the data, not three.
    live = store.disk.used_bytes
    written = store.disk.stats["bytes_written"]
    assert live < written


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "del", "get"]), st.integers(0, 300)),
        max_size=200,
    )
)
def test_store_matches_reference_model(ops):
    store = LSMStore(EngineRuntime(), small_config(memtable_bytes=512))
    model: dict[bytes, bytes] = {}
    for op, k in ops:
        key = ikey(k)
        if op == "put":
            value = b"v%d" % k
            store.put(key, value)
            model[key] = value
        elif op == "del":
            store.delete(key)
            model.pop(key, None)
        else:
            assert store.get(key) == model.get(key)
    for key, value in model.items():
        assert store.get(key) == value
    expect = sorted(model.items())[:50]
    assert store.scan(ikey(0), 50) == expect

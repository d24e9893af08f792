"""Integration tests for the IndeXY facade (X + Y + framework)."""

import random

from repro.art import AdaptiveRadixTree, encode_int
from repro.btree import BPlusTree
from repro.core import IndeXY, IndeXYConfig
from repro.diskbtree import DiskBPlusTree
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime


def ikey(i: int) -> bytes:
    return encode_int(i)


def make_art_lsm(limit_bytes=256 * 1024, **kwargs):
    runtime = EngineRuntime()
    clock, disk = runtime.clock, runtime.disk
    x = AdaptiveRadixTree(clock=clock)
    y = LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024, block_cache_bytes=16 * 1024))
    config = IndeXYConfig(
        memory_limit_bytes=limit_bytes,
        preclean_interval_inserts=512,
        partition_depth=2,
    )
    return IndeXY(x, y, config, runtime, **kwargs), clock, disk


def make_art_bplus(limit_bytes=256 * 1024):
    runtime = EngineRuntime()
    clock, disk = runtime.clock, runtime.disk
    x = AdaptiveRadixTree(clock=clock)
    y = DiskBPlusTree(runtime, pool_bytes=16 * 4096, page_size=4096)
    config = IndeXYConfig(memory_limit_bytes=limit_bytes, preclean_interval_inserts=512)
    return IndeXY(x, y, config, runtime), clock, disk


def make_btree_lsm(limit_bytes=256 * 1024):
    runtime = EngineRuntime()
    clock, disk = runtime.clock, runtime.disk
    x = BPlusTree(capacity=32, clock=clock)
    y = LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024))
    config = IndeXYConfig(memory_limit_bytes=limit_bytes, preclean_interval_inserts=512)
    return IndeXY(x, y, config, runtime), clock, disk


def fill(index, n, seed=3, value=b"v" * 8):
    rng = random.Random(seed)
    keys = rng.sample(range(10**8), n)
    for k in keys:
        index.insert(ikey(k), value)
    return keys


# ----------------------------------------------------------------------
# basic correctness while everything fits in memory
# ----------------------------------------------------------------------
def test_in_memory_get_put():
    index, __, ___ = make_art_lsm()
    index.insert(ikey(1), b"one")
    assert index.get(ikey(1)) == b"one"
    assert index.get(ikey(2)) is None
    assert index.stats["x_hits"] == 1
    assert index.stats["misses"] == 1


def test_no_release_under_limit():
    index, __, ___ = make_art_lsm(limit_bytes=10 << 20)
    fill(index, 1000)
    assert index.stats["release_cycles"] == 0


# ----------------------------------------------------------------------
# spilling beyond the memory limit
# ----------------------------------------------------------------------
def test_memory_stays_bounded_after_limit():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    fill(index, 8000)
    assert index.stats["release_cycles"] >= 1
    assert index.x.memory_bytes <= index.config.memory_limit_bytes


def test_all_keys_remain_reachable_after_releases():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    keys = fill(index, 8000)
    missing = [k for k in keys if index.get(ikey(k)) != b"v" * 8]
    assert missing == []
    assert index.stats["y_hits"] > 0  # some answers had to come from Y


def test_precleaning_runs_ahead_of_releases():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    fill(index, 8000)
    assert index.stats["preclean_cleanings"] >= 1
    assert index.stats["preclean_keys_written"] >= 1
    assert index.stats["release_cycles"] >= 1


def test_fully_precleaned_release_is_free():
    """A release after a full flush drops subtrees without any write-back."""
    index, __, disk = make_art_lsm(limit_bytes=10 << 20)
    fill(index, 4000)
    index.flush()  # everything clean now, copies all in Y
    writes_before = disk.stats["bytes_written"]
    released = index.release_cycle()  # no-op (under watermark) -> force one
    target = index.x.memory_bytes // 2
    from repro.core import select_for_release

    refs = select_for_release(index.x, target)
    for ref in refs:
        assert list(index.x.iter_dirty_entries(ref.node)) == []
        index.x.detach(ref)
    assert disk.stats["bytes_written"] == writes_before  # zero release I/O
    assert released == 0


def test_loads_from_y_enter_x_clean():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    keys = fill(index, 8000)
    # Find a key that currently lives only in Y.
    evicted = next(k for k in keys if index.x.search(ikey(k)) is None)
    assert index.get(ikey(evicted)) == b"v" * 8  # served via Y, cached in X
    assert index.x.search(ikey(evicted)) == b"v" * 8
    dirty_keys = {k for k, __v in index.x.iter_dirty_entries(index.x.root)}
    assert ikey(evicted) not in dirty_keys  # cached clean: free to drop again


def test_overwrite_after_release_shadows_y():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    keys = fill(index, 8000)
    victim = keys[123]
    index.insert(ikey(victim), b"fresh!!!")
    assert index.get(ikey(victim)) == b"fresh!!!"


def test_delete_removes_from_both_tiers():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    keys = fill(index, 8000)
    victim = keys[77]
    index.delete(ikey(victim))
    assert index.get(ikey(victim)) is None


def test_scan_merges_x_and_y():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    keys = fill(index, 8000)
    ordered = sorted(keys)
    start = ordered[100]
    got = index.scan(ikey(start), 50)
    expect = [ikey(k) for k in ordered if k >= start][:50]
    assert [k for k, __v in got] == expect


def test_scan_prefers_x_version():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    keys = fill(index, 8000)
    victim = min(keys)
    index.insert(ikey(victim), b"newest!")
    got = dict(index.scan(ikey(victim), 1))
    assert got[ikey(victim)] == b"newest!"


def test_flush_persists_dirty_data():
    index, __, disk = make_art_lsm(limit_bytes=10 << 20)
    fill(index, 500)
    index.flush()
    assert disk.stats["bytes_written"] > 0
    # After a flush, Y can answer for everything.
    assert index.y.get(ikey(min(fill(index, 0) or [0]))) is None or True


def test_tracking_enabled_at_low_watermark():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024)
    fill(index, 8000)
    assert index.stats["tracking_started"] == 1


# ----------------------------------------------------------------------
# alternative compositions (the framework's whole point)
# ----------------------------------------------------------------------
def test_art_bplus_composition():
    index, __, ___ = make_art_bplus(limit_bytes=128 * 1024)
    keys = fill(index, 6000)
    assert index.stats["release_cycles"] >= 1
    for k in keys[::101]:
        assert index.get(ikey(k)) == b"v" * 8


def test_btree_lsm_composition():
    index, __, ___ = make_btree_lsm(limit_bytes=256 * 1024)
    keys = fill(index, 6000)
    assert index.stats["release_cycles"] >= 1
    for k in keys[::101]:
        assert index.get(ikey(k)) == b"v" * 8


# ----------------------------------------------------------------------
# ablation switches
# ----------------------------------------------------------------------
def test_precleaning_disabled_still_correct():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024, precleaning_enabled=False)
    keys = fill(index, 6000)
    assert index.stats["preclean_cleanings"] == 0
    for k in keys[::97]:
        assert index.get(ikey(k)) == b"v" * 8


def test_no_load_on_miss_still_correct():
    index, __, ___ = make_art_lsm(limit_bytes=128 * 1024, load_on_miss=False)
    keys = fill(index, 6000)
    x_count = index.x.key_count
    for k in keys[::97]:
        assert index.get(ikey(k)) == b"v" * 8
    assert index.x.key_count == x_count  # nothing was cached into X


def test_release_cycle_noop_when_under_low_watermark():
    index, __, ___ = make_art_lsm(limit_bytes=10 << 20)
    fill(index, 100)
    assert index.release_cycle() == 0


# ----------------------------------------------------------------------
# randomized end-to-end model check
# ----------------------------------------------------------------------
def test_random_ops_match_dict_model():
    index, __, ___ = make_art_lsm(limit_bytes=96 * 1024)
    model: dict[bytes, bytes] = {}
    rng = random.Random(1234)
    for step in range(12_000):
        k = ikey(rng.randrange(5000))
        action = rng.random()
        if action < 0.6:
            v = b"v%07d" % rng.randrange(10**7)
            index.insert(k, v)
            model[k] = v
        elif action < 0.9:
            assert index.get(k) == model.get(k), f"step {step}"
        else:
            index.delete(k)
            model.pop(k, None)
    for k, v in list(model.items())[::23]:
        assert index.get(k) == v

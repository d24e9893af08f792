"""Unit tests for the buffer pool."""

import pytest

from repro.diskbtree import BufferPool, BufferPoolConfig, LeafPage
from repro.sim import EngineRuntime


def make_pool(capacity_pages=4, page_size=4096, **kwargs):
    runtime = EngineRuntime()
    pool = BufferPool(
        runtime,
        BufferPoolConfig(capacity_bytes=capacity_pages * page_size, page_size=page_size, **kwargs),
    )
    return pool, runtime.disk


def leaf_with(n: int) -> LeafPage:
    page = LeafPage()
    page.keys = [b"k%08d" % i for i in range(n)]
    page.values = [b"v" for __ in range(n)]
    return page


def test_new_page_is_resident_and_dirty():
    pool, disk = make_pool()
    pid = pool.new_page(leaf_with(1))
    assert pool.is_resident(pid)
    assert disk.stats["writes"] == 0  # not yet written back


def test_capacity_validation():
    with pytest.raises(ValueError):
        BufferPool(EngineRuntime(), BufferPoolConfig(capacity_bytes=4096, page_size=4096))


def test_get_page_hit_does_no_io():
    pool, disk = make_pool()
    pid = pool.new_page(leaf_with(3))
    reads = disk.stats["reads"]
    page = pool.get_page(pid)
    assert page.entry_count == 3
    assert disk.stats["reads"] == reads
    assert pool.stats["pool_hits"] == 1


def test_eviction_writes_back_dirty_and_faults_on_reaccess():
    pool, disk = make_pool(capacity_pages=2)
    pids = [pool.new_page(leaf_with(i + 1)) for i in range(4)]
    # Pool holds 2 frames: the first pages were evicted and written back.
    assert disk.stats["writes"] >= 2
    page = pool.get_page(pids[0])  # fault back in
    assert page.entry_count == 1
    assert disk.stats["reads"] >= 1


def test_clean_eviction_skips_write():
    pool, disk = make_pool(capacity_pages=2)
    pid = pool.new_page(leaf_with(1))
    pool.flush_all()
    writes = disk.stats["writes"]
    # Fill the pool so the clean page gets evicted.
    pool.new_page(leaf_with(2))
    pool.new_page(leaf_with(3))
    pool.new_page(leaf_with(4))
    pool.get_page(pid)
    # The clean page's eviction added no write beyond the dirty ones.
    assert pool.stats["evictions"] >= 1
    assert disk.stats["writes"] >= writes


def test_pinned_pages_survive_pressure():
    pool, __ = make_pool(capacity_pages=2)
    pid = pool.new_page(leaf_with(1))
    pool.pin(pid)
    for i in range(5):
        pool.new_page(leaf_with(i + 2))
    assert pool.is_resident(pid)
    pool.unpin(pid)


def test_unpin_without_pin_raises():
    pool, __ = make_pool()
    pid = pool.new_page(leaf_with(1))
    with pytest.raises(RuntimeError):
        pool.unpin(pid)


def test_proactive_writeback_targets_most_dirtied():
    pool, __ = make_pool(capacity_pages=4, dirty_fraction=0.5, writeback_batch_fraction=0.25)
    pids = [pool.new_page(leaf_with(1)) for __ in range(4)]
    pool.flush_all()
    # Dirty one page a lot, others a little; the heavy one must go first.
    for __ in range(10):
        pool.mark_dirty(pids[0])
    pool.mark_dirty(pids[1])
    pool.mark_dirty(pids[2])
    assert pool.stats["proactive_writebacks"] >= 1
    assert not pool.is_resident(pids[0])


def test_writeback_rejects_oversized_page():
    pool, __ = make_pool(capacity_pages=2, page_size=256)
    big = leaf_with(50)  # encodes far beyond 256 bytes
    pid = pool.new_page(big)
    with pytest.raises(RuntimeError):
        pool._write_back(pid, pool._frames[pid])


def test_used_bytes_counts_frames():
    pool, __ = make_pool(capacity_pages=4, page_size=4096)
    pool.new_page(leaf_with(1))
    pool.new_page(leaf_with(1))
    assert pool.used_bytes == 2 * 4096


def test_unpin_path_releases_every_page_and_refuses_an_unpinned_one():
    pool, __ = make_pool()
    inner, leaf = pool.new_page(leaf_with(1)), pool.new_page(leaf_with(2))
    pool.pin(inner)
    pool.pin(leaf)
    pool.unpin_path([(inner, 0)], leaf)
    assert [pool._frames[pid].pins for pid in (inner, leaf)] == [0, 0]
    with pytest.raises(RuntimeError, match=f"page {inner} is not pinned"):
        pool.unpin_path([(inner, 0)], leaf)


def test_decode_memo_fills_on_fault_in_and_drops_its_oldest_use():
    pool, __ = make_pool(capacity_pages=2)
    pool._decoded_cap = 3
    pids = [pool.new_page(leaf_with(i + 1)) for i in range(5)]
    pool.flush_all()
    pool._decoded.clear()
    blob_of = {pid: pool.disk.read(pid) for pid in pids}
    expected: list[bytes] = []  # the memo's keys, oldest use first
    memo_hits = drops = 0
    for pid in [0, 1, 2, 0, 3, 4, 1, 0, 2, 2, 3]:
        pid = pids[pid]
        misses = pool.stats["pool_misses"]
        assert pool.get_page(pid).entry_count == pids.index(pid) + 1
        if pool.stats["pool_misses"] == misses:
            continue  # a resident hit leaves the memo alone
        blob = blob_of[pid]
        if blob in expected:
            expected.remove(blob)
            memo_hits += 1
        elif len(expected) == 3:
            del expected[0]
            drops += 1
        expected.append(blob)
        assert list(pool._decoded) == expected
    assert memo_hits and drops
    # a frame holds a copy: mutating it leaves the template pristine
    page = pool.get_page(pid)
    page.keys.append(b"zz")
    assert pool._decoded[blob_of[pid]].entry_count == pids.index(pid) + 1

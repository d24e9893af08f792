"""Fixture tests for the runtime sanitizers (`repro.check.sanitizer`).

Each structural check gets (a) a clean run on a genuinely healthy
structure and (b) a deliberately corrupted structure it must flag.
"""

import random
from types import SimpleNamespace

import pytest

from repro.art import AdaptiveRadixTree, encode_int
from repro.art.nodes import Node4
from repro.btree import BPlusTree
from repro.btree.node import BInner, BLeaf
from repro.cache.bytecache import PolicyCache
from repro.check import sanitizer
from repro.check.sanitizer import (
    CacheSanitizer,
    CheckBackAuditor,
    CheckError,
    IndexSanitizer,
    ShardSanitizer,
    StoreSanitizer,
    Violation,
    check_art,
    check_art_memory,
    check_btree,
    check_buffer_pool,
    check_disk_btree,
    check_flush_coherence,
    check_index_y,
    check_indexy,
    check_lsm,
    check_no_leaked_pins,
    check_release_watermark,
    iter_art_inner_nodes,
    iter_btree_nodes,
    refuse_backwards_time,
)
from repro.core import IndeXY, IndeXYConfig
from repro.diskbtree import DiskBPlusTree
from repro.lsm import LSMConfig, LSMStore
from repro.lsm.bloom import BloomFilter
from repro.lsm.store import MAX_LEVELS
from repro.sim.runtime import EngineRuntime
from repro.systems import build_system


def ikey(i: int) -> bytes:
    return encode_int(i)


def checks_of(violations):
    return {v.check for v in violations}


# ----------------------------------------------------------------------
# ART
# ----------------------------------------------------------------------
def build_art(n=500, seed=3):
    rng = random.Random(seed)
    tree = AdaptiveRadixTree()
    for k in rng.sample(range(10**8), n):
        tree.insert(ikey(k), rng.randbytes(rng.randint(2, 20)))
    return tree


def first_inner_with_inner_child(tree):
    for node in iter_art_inner_nodes(tree):
        if node is not tree.root:
            return node
    raise AssertionError("tree too small")


def test_art_clean_tree_passes():
    tree = build_art()
    assert check_art(tree) == []
    assert check_art_memory(tree) == []


def test_art_leaf_count_corruption_detected():
    tree = build_art()
    first_inner_with_inner_child(tree).leaf_count += 1
    assert "art-leaf-count" in checks_of(check_art(tree))


def test_art_key_count_corruption_detected():
    tree = build_art()
    tree.key_count += 3
    assert "art-key-count" in checks_of(check_art(tree))


def test_art_prefix_corruption_detected():
    tree = build_art()
    node = first_inner_with_inner_child(tree)
    node.prefix = node.prefix + b"\xff"  # radix path no longer matches keys
    assert "art-prefix" in checks_of(check_art(tree))


def test_art_capacity_overflow_detected():
    tree = AdaptiveRadixTree()
    for k in range(3):
        tree.insert(bytes([k]) * 4, b"v")
    node4 = next(
        n for n in iter_art_inner_nodes(tree) if isinstance(n, Node4) and n.num_children
    )
    # Force a 5th/6th entry into the 4-slot layout behind set_child's back.
    while node4.num_children <= Node4.CAPACITY:
        byte = node4._bytes[-1] + 1
        node4._bytes.append(byte)
        node4._children.append(node4._children[-1])
    assert "art-capacity" in checks_of(check_art(tree))


def test_art_child_count_disagreement_detected():
    tree = build_art()
    node = first_inner_with_inner_child(tree)
    if hasattr(node, "_count"):
        node._count += 1
    else:
        node.__class__ = type(node)  # keep layout; corrupt the parallel arrays
        node._bytes.append(255)
        node._children.append(node._children[-1])
    assert checks_of(check_art(tree)) & {"art-child-count", "art-capacity", "art-leaf-count"}


def test_art_dirty_leaf_under_clean_ancestor_detected():
    tree = build_art()
    tree.clear_dirty(tree.root)
    leaf = next(tree.iter_leaves(tree.root))
    leaf.dirty = True  # ancestors stay clean: pruning would lose this leaf
    assert "art-dirty-propagation" in checks_of(check_art(tree))


def test_art_memory_corruption_detected():
    tree = build_art()
    tree.memory_bytes += 17
    assert "art-memory" in checks_of(check_art_memory(tree))


def test_art_overwrite_across_embed_threshold_keeps_account_exact():
    # Regression for the incremental-accounting bug the sanitizer pinned:
    # overwrites crossing the 8-byte embed threshold skewed memory_bytes.
    tree = AdaptiveRadixTree()
    tree.insert(ikey(1), b"tiny")
    tree.insert(ikey(1), b"much-longer-than-eight")
    tree.insert(ikey(1), b"tiny")
    assert check_art_memory(tree) == []


# ----------------------------------------------------------------------
# check-back auditing
# ----------------------------------------------------------------------
def test_auditor_accepts_scan_set_bits():
    tree = build_art()
    auditor = CheckBackAuditor()
    node = first_inner_with_inner_child(tree)
    node.clean_candidate = True
    auditor.note_set(node)
    assert auditor.audit(iter_art_inner_nodes(tree)) == []


def test_auditor_flags_forged_c_bit():
    tree = build_art()
    auditor = CheckBackAuditor()
    node = first_inner_with_inner_child(tree)
    node.clean_candidate = True  # nobody called note_set
    violations = auditor.audit(iter_art_inner_nodes(tree))
    assert "checkback-c-bit" in checks_of(violations)


def test_auditor_follows_node_replacement():
    auditor = CheckBackAuditor()
    old, new = Node4(), Node4()
    old.clean_candidate = True
    auditor.note_set(old)
    new.clean_candidate = True  # _copy_meta_from copies the C bit on grow
    auditor.note_replaced(old, new)
    assert auditor.audit([new]) == []
    assert auditor.candidate_count == 1


def test_auditor_clear_then_audit_prunes():
    auditor = CheckBackAuditor()
    node = Node4()
    node.clean_candidate = True
    auditor.note_set(node)
    node.clean_candidate = False
    auditor.note_clear(node)
    assert auditor.audit([node]) == []
    assert auditor.candidate_count == 0


def test_auditor_survives_real_growth_via_tree_hook():
    tree = AdaptiveRadixTree()
    auditor = CheckBackAuditor()
    tree.on_node_replaced = auditor.note_replaced
    # Two keys sharing the first byte create a Node4 junction under it.
    tree.insert(b"\x01\x00xx", b"v")
    tree.insert(b"\x01\x01xx", b"v")
    node = tree.root.child(1)
    assert isinstance(node, Node4)
    node.clean_candidate = True
    auditor.note_set(node)
    # More siblings grow the Node4 -> Node16: the node OBJECT is replaced
    # and the tree hook must re-key the auditor's shadow entry.
    for b in range(2, 10):
        tree.insert(b"\x01" + bytes([b]) + b"xx", b"v")
    assert not isinstance(tree.root.child(1), Node4)
    assert auditor.audit(iter_art_inner_nodes(tree)) == []


# ----------------------------------------------------------------------
# in-memory B+ tree
# ----------------------------------------------------------------------
def build_btree(n=400, seed=5, capacity=16):
    rng = random.Random(seed)
    tree = BPlusTree(capacity=capacity)
    for k in rng.sample(range(10**8), n):
        tree.insert(ikey(k), rng.randbytes(rng.randint(2, 30)))
    return tree


def first_bleaf(tree):
    return next(n for n in iter_btree_nodes(tree) if isinstance(n, BLeaf))


def test_btree_clean_tree_passes():
    assert check_btree(build_btree()) == []


def test_btree_key_order_corruption_detected():
    tree = build_btree()
    leaf = first_bleaf(tree)
    leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]
    assert "btree-order" in checks_of(check_btree(tree))


def test_btree_bounds_escape_detected():
    tree = build_btree()
    inner = next(n for n in iter_btree_nodes(tree) if isinstance(n, BInner))
    # Push a key beyond every separator: it escapes its half-open range.
    leaf = next(n for n in iter_btree_nodes(tree) if isinstance(n, BLeaf))
    leaf.keys[0] = b"\xff" * 9
    violations = checks_of(check_btree(tree))
    assert violations & {"btree-bounds", "btree-order"}
    assert inner is not None


def test_btree_arity_corruption_detected():
    tree = build_btree()
    inner = next(n for n in iter_btree_nodes(tree) if isinstance(n, BInner))
    inner.separators.pop()
    assert "btree-arity" in checks_of(check_btree(tree))


def test_btree_capacity_overflow_detected():
    tree = build_btree(capacity=8)
    leaf = first_bleaf(tree)
    while len(leaf.keys) <= leaf.capacity:
        leaf.keys.append(leaf.keys[-1] + b"\x00")
        leaf.values.append(b"v")
        leaf.entry_dirty.append(False)
    assert "btree-capacity" in checks_of(check_btree(tree))


def test_btree_parallel_array_corruption_detected():
    tree = build_btree()
    first_bleaf(tree).values.pop()
    assert "btree-parallel-arrays" in checks_of(check_btree(tree))


def test_btree_leaf_count_corruption_detected():
    tree = build_btree()
    next(n for n in iter_btree_nodes(tree) if isinstance(n, BInner)).leaf_count += 2
    assert "btree-leaf-count" in checks_of(check_btree(tree))


def test_btree_key_count_corruption_detected():
    tree = build_btree()
    tree.key_count -= 1
    assert "btree-key-count" in checks_of(check_btree(tree))


def test_btree_dirty_entry_under_clean_node_detected():
    tree = build_btree()
    tree.clear_dirty(tree.root)
    leaf = first_bleaf(tree)
    leaf.entry_dirty[0] = True  # leaf and ancestors stay clean
    assert "btree-dirty-propagation" in checks_of(check_btree(tree))


def test_btree_memory_corruption_detected():
    tree = build_btree()
    tree.memory_bytes -= 25
    assert "btree-memory" in checks_of(check_btree(tree))


# ----------------------------------------------------------------------
# disk B+ tree + buffer pool
# ----------------------------------------------------------------------
def build_disk_btree(n=300, seed=7):
    rng = random.Random(seed)
    tree = DiskBPlusTree(
        pool_bytes=96 * 4096, page_size=4096, runtime=EngineRuntime()
    )
    for k in rng.sample(range(10**8), n):
        tree.put(ikey(k), rng.randbytes(rng.randint(8, 60)))
    return tree


def test_disk_btree_clean_tree_passes():
    tree = build_disk_btree()
    assert check_disk_btree(tree) == []
    assert check_no_leaked_pins(tree.pool) == []
    assert check_buffer_pool(tree.pool) == []


def test_disk_btree_key_order_corruption_detected():
    tree = build_disk_btree()
    leaf = tree.pool.get_page(tree._leftmost_leaf())
    leaf.keys[0], leaf.keys[1] = leaf.keys[1], leaf.keys[0]
    violations = checks_of(check_disk_btree(tree))
    assert violations & {"diskbtree-order", "diskbtree-chain"}


def test_disk_btree_chain_corruption_detected():
    tree = build_disk_btree()
    leaf = tree.pool.get_page(tree._leftmost_leaf())
    assert leaf.next_leaf is not None
    leaf.next_leaf = None  # chain now misses every later leaf
    assert "diskbtree-chain" in checks_of(check_disk_btree(tree))


def test_disk_btree_page_size_overflow_detected():
    tree = build_disk_btree()
    leaf = tree.pool.get_page(tree._leftmost_leaf())
    leaf.values[0] = b"x" * (2 * tree.page_size)
    assert "diskbtree-page-size" in checks_of(check_disk_btree(tree))


def test_disk_btree_parallel_array_corruption_detected():
    tree = build_disk_btree()
    tree.pool.get_page(tree._leftmost_leaf()).values.pop()
    assert "diskbtree-parallel-arrays" in checks_of(check_disk_btree(tree))


def test_disk_btree_key_count_corruption_detected():
    tree = build_disk_btree()
    tree.key_count += 5
    assert "diskbtree-key-count" in checks_of(check_disk_btree(tree))


def test_leaked_pin_detected():
    tree = build_disk_btree()
    tree.pool.pin(tree._root_pid)
    assert "bufferpool-pin-leak" in checks_of(check_no_leaked_pins(tree.pool))
    tree.pool.unpin(tree._root_pid)
    assert check_no_leaked_pins(tree.pool) == []


def test_buffer_pool_ring_corruption_detected():
    tree = build_disk_btree()
    victim = tree.pool.policy._ring.pop()
    del tree.pool.policy._ref[victim]
    assert "bufferpool-policy" in checks_of(check_buffer_pool(tree.pool))


def test_buffer_pool_duplicate_ring_entry_detected():
    tree = build_disk_btree()
    tree.pool.policy._ring.append(tree.pool.policy._ring[0])
    assert "bufferpool-policy" in checks_of(check_buffer_pool(tree.pool))


def test_buffer_pool_policy_byte_drift_detected():
    tree = build_disk_btree()
    tree.pool.policy.used_bytes += tree.page_size
    assert "bufferpool-bytes" in checks_of(check_buffer_pool(tree.pool))


def test_buffer_pool_stale_policy_key_detected():
    tree = build_disk_btree()
    pid = next(tree.pool.policy.keys())
    del tree.pool._frames[pid]
    assert "bufferpool-policy" in checks_of(check_buffer_pool(tree.pool))


def test_buffer_pool_negative_pin_detected():
    tree = build_disk_btree()
    tree.pool._frames[tree._root_pid].pins = -1
    assert "bufferpool-pins" in checks_of(check_buffer_pool(tree.pool))


def test_buffer_pool_dirty_count_drift_raises():
    # The proactive write-back trigger reads ``_dirty_count``, the mirror
    # of the per-frame dirty bits; a sanitized system's sweep checks it.
    system = build_system("B+-B+", memory_limit_bytes=256 * 1024, debug_checks=True)
    for k in range(600):
        system.insert(k, b"v" * 16)
    system.sanitizer.check_now()
    system.tree.pool._dirty_count += 1
    with pytest.raises(CheckError) as excinfo:
        system.sanitizer.check_now()
    assert "bufferpool-dirty-count" in {v.check for v in excinfo.value.violations}


# ----------------------------------------------------------------------
# LSM
# ----------------------------------------------------------------------
def build_lsm(n=3000, seed=11):
    # Small memtable/level budgets so the fixture exercises multi-table
    # deep levels, not just L0.
    rng = random.Random(seed)
    store = LSMStore(
        config=LSMConfig(
            memtable_bytes=4 * 1024,
            block_cache_bytes=32 * 1024,
            level1_bytes=8 * 1024,
        ),
        runtime=EngineRuntime(),
    )
    for k in rng.sample(range(10**8), n):
        store.put(ikey(k), rng.randbytes(rng.randint(8, 40)))
    return store


def deep_level_tables(store):
    for level in range(1, MAX_LEVELS):
        if len(store.levels[level]) >= 2:
            return level, store.levels[level]
    raise AssertionError("no multi-table deep level; grow the fixture")


def test_lsm_clean_store_passes():
    store = build_lsm()
    deep_level_tables(store)  # the fixture must actually exercise levels 1+
    assert check_lsm(store) == []


def test_lsm_level_order_corruption_detected():
    store = build_lsm()
    level, tables = deep_level_tables(store)
    tables[0], tables[-1] = tables[-1], tables[0]
    violations = checks_of(check_lsm(store, max_deep_tables=0))
    assert violations & {"lsm-level-order", "lsm-level-overlap"}


def test_lsm_level_overlap_corruption_detected():
    store = build_lsm()
    level, tables = deep_level_tables(store)
    tables[1].min_key = tables[0].min_key  # ranges now collide
    violations = checks_of(check_lsm(store, max_deep_tables=0))
    assert "lsm-level-overlap" in violations


def test_lsm_table_metadata_corruption_detected():
    store = build_lsm()
    __, tables = deep_level_tables(store)
    tables[0].entry_count += 1
    assert "lsm-table-count" in checks_of(check_lsm(store))


def test_lsm_block_count_corruption_detected():
    store = build_lsm()
    __, tables = deep_level_tables(store)
    tables[0]._block_counts[0] += 1  # a point read would charge one comparison too many
    assert checks_of(check_lsm(store)) == {"lsm-block-count"}


def test_lsm_block_count_list_length_corruption_detected():
    store = build_lsm()
    __, tables = deep_level_tables(store)
    tables[0]._block_counts.append(1)  # a count for a block the table does not have
    assert checks_of(check_lsm(store)) == {"lsm-block-count"}


def test_lsm_table_range_corruption_detected():
    store = build_lsm()
    __, tables = deep_level_tables(store)
    tables[0].max_key = tables[0].min_key[:-1] + b"\x00"  # below min_key
    violations = checks_of(check_lsm(store, max_deep_tables=0))
    assert violations & {"lsm-table-range", "lsm-level-overlap", "lsm-level-order"}


def test_lsm_bloom_corruption_detected():
    store = build_lsm()
    __, tables = deep_level_tables(store)
    tables[0].bloom = BloomFilter(expected_keys=8)  # empty: denies every key
    assert "lsm-bloom" in checks_of(check_lsm(store))


def test_lsm_tombstone_visibility_violation_detected():
    store = build_lsm(n=40)
    key = next(iter(dict(store._memtable.items())))
    store.delete(key)
    # Forge a read path that resurrects the deleted key.
    store.get = lambda k: b"zombie"
    assert "lsm-tombstone" in checks_of(check_lsm(store))


def test_lsm_tombstone_check_skipped_under_budget():
    store = build_lsm()  # fixture has on-disk tables
    key = next(iter(dict(store._memtable.items())), None) or ikey(1)
    store.delete(key)
    store.get = lambda k: b"zombie"
    # With a truncated deep-read budget the newest-version map is partial,
    # so the tombstone check must not run (it would be unsound).
    assert "lsm-tombstone" not in checks_of(check_lsm(store, max_deep_tables=0))


# ----------------------------------------------------------------------
# engine-level checks
# ----------------------------------------------------------------------
def make_index(**kwargs):
    runtime = EngineRuntime()
    x = AdaptiveRadixTree(clock=runtime.clock)
    y = LSMStore(
        config=LSMConfig(memtable_bytes=8 * 1024, block_cache_bytes=16 * 1024),
        runtime=runtime,
    )
    config = IndeXYConfig(
        memory_limit_bytes=96 * 1024,
        preclean_interval_inserts=256,
        partition_depth=2,
    )
    return IndeXY(x, y, config, runtime=runtime, **kwargs)


def test_clock_guard_accepts_forward_time():
    runtime = EngineRuntime()
    runtime.subscribe(refuse_backwards_time)
    runtime.clock.charge_cpu(100.0)
    runtime.clock.charge_background(50.0)
    offset = runtime.disk.allocate(8)
    runtime.disk.write(offset, b"x" * 8)
    runtime.stats.bump("gauge", -1)  # counters may go down; time may not
    assert runtime.clock.snapshot() == (100.0, 50.0)


def test_clock_guard_flags_backwards_time():
    # Refused at the charge that carries it, before the account moves.
    runtime = EngineRuntime()
    runtime.subscribe(refuse_backwards_time)
    runtime.clock.charge_cpu(1000.0)
    for charge in (runtime.clock.charge_cpu, runtime.clock.charge_background):
        for ns in (-500.0, float("nan")):
            with pytest.raises(CheckError) as err:
                charge(ns)
            assert "clock-monotonic" in checks_of(err.value.violations)
    assert runtime.clock.snapshot() == (1000.0, 0.0)


@pytest.mark.parametrize("name", ["ART-LSM", "B+-B+"])  # Index-, StoreSanitizer
def test_clock_guard_rides_with_debug_checks(name):
    checked = build_system(name, 256 * 1024, debug_checks=True)
    with pytest.raises(CheckError, match="clock-monotonic"):
        checked.clock.charge_cpu(-1.0)
    unchecked = build_system(name, 256 * 1024, debug_checks=False)
    unchecked.clock.charge_cpu(-1.0)  # off means unchecked


def test_release_watermark_violation_detected():
    config = IndeXYConfig(memory_limit_bytes=100_000)
    index = SimpleNamespace(x=SimpleNamespace(memory_bytes=99_000), config=config)
    violations = check_release_watermark(index, released=10)
    assert "release-watermark" in checks_of(violations)
    assert check_release_watermark(index, released=0) == []


def test_release_watermark_clean_after_real_release():
    index = make_index()
    rng = random.Random(13)
    for k in rng.sample(range(10**8), 4000):
        index.insert(ikey(k), b"v" * 16)
    assert index.stats["release_cycles"] > 0
    released = index.release_cycle()
    assert check_release_watermark(index, released) == []


def test_flush_coherence_clean_after_flush():
    index = make_index()
    rng = random.Random(17)
    for k in rng.sample(range(10**6), 500):
        index.insert(ikey(k), b"v" * 12)
    index.flush()
    assert check_flush_coherence(index) == []


def test_flush_coherence_flags_dirty_entries():
    index = make_index()
    index.insert(ikey(1), b"one")
    assert "flush-dirty" in checks_of(check_flush_coherence(index))


def test_flush_coherence_flags_stale_y():
    index = make_index()
    index.insert(ikey(1), b"one")
    index.flush()
    index.y.delete(ikey(1))  # Y now disagrees with X
    assert "flush-coherence" in checks_of(check_flush_coherence(index))


def test_check_indexy_dispatches_and_passes_clean():
    index = make_index(debug_checks=True)
    rng = random.Random(23)
    for k in rng.sample(range(10**6), 800):
        index.insert(ikey(k), b"v" * 10)
    assert check_indexy(index) == []


# ----------------------------------------------------------------------
# orchestrators
# ----------------------------------------------------------------------
def test_index_sanitizer_clean_workload_runs():
    index = make_index(debug_checks=True, debug_check_interval=64)
    rng = random.Random(29)
    keys = rng.sample(range(10**7), 2000)
    for k in keys:
        index.insert(ikey(k), rng.randbytes(rng.randint(4, 24)))
    for k in rng.sample(keys, 300):
        index.get(ikey(k))
    for k in rng.sample(keys, 200):
        index.delete(ikey(k))
    index.flush()
    assert index.sanitizer.checks_run > 0


def test_index_scans_advance_the_sanitizer_cadence():
    # Like insert/get/delete, a scan is one op on the sweep cadence, both
    # before anything reached Index Y and on the merged X+Y path.
    index = make_index(debug_checks=True, debug_check_interval=4)
    index.insert(ikey(1), b"one")
    assert not index._y_populated
    before = index.sanitizer.checks_run
    for __ in range(8):
        index.scan(ikey(0), 5)
    assert index.sanitizer.checks_run == before + 2
    index.flush()
    assert index._y_populated
    before = index.sanitizer.checks_run
    for __ in range(8):
        index.scan(ikey(0), 5)
    assert index.sanitizer.checks_run == before + 2


def test_index_sanitizer_raises_on_corruption():
    index = make_index(debug_checks=True)
    index.insert(ikey(1), b"one")
    index.x.key_count += 7
    with pytest.raises(CheckError) as excinfo:
        index.sanitizer.check_now()
    assert "art-key-count" in {v.check for v in excinfo.value.violations}


def test_index_sanitizer_detects_resurrection():
    index = make_index(debug_checks=True)
    index.insert(ikey(1), b"one")
    index.delete(ikey(1))
    index.y.put_batch([(ikey(1), b"ghost")])  # resurrect behind the engine
    with pytest.raises(CheckError) as excinfo:
        index.sanitizer.check_now()
    assert "delete-resurrection" in {v.check for v in excinfo.value.violations}


def test_store_sanitizer_raises_on_violation():
    runtime = EngineRuntime()
    san = StoreSanitizer(runtime, lambda: [Violation("fixture", "boom")], interval=1)
    with pytest.raises(CheckError):
        san.after_op()


def test_store_sanitizer_interval_and_clean_path():
    runtime = EngineRuntime()
    calls = []
    san = StoreSanitizer(runtime, lambda: calls.append(1) or [], interval=3)
    for __ in range(9):
        san.after_op()
    assert len(calls) == 3


def test_store_sanitizer_sweep_is_an_observation():
    """What the checker charges is rolled back: checking never moves results."""
    runtime = EngineRuntime()

    def checker():
        runtime.clock.charge_cpu(1_000)
        return []

    san = StoreSanitizer(runtime, checker, interval=1)
    san.after_op()
    assert san.checks_run == 1 and runtime.clock.cpu_ns == 0


@pytest.mark.parametrize("name", ["B+-B+", "RocksDB"])
def test_baseline_sanitizer_raises_on_corruption(name):
    """``debug_checks`` baselines run ``check_index_y`` over the bare tree/store."""
    system = build_system(name, memory_limit_bytes=256 * 1024, debug_checks=True)
    for k in range(600):
        system.insert(k, b"v" * 16)
    system.sanitizer.check_now()  # clean structure passes the real sweep
    if name == "B+-B+":
        system.tree.key_count += 5
        expected = "diskbtree-key-count"
    else:
        system.flush()
        tables = next(tables for tables in system.store.levels if tables)
        tables[0].entry_count += 1
        expected = "lsm-table-count"
    assert expected in checks_of(check_index_y(system.y))
    with pytest.raises(CheckError) as excinfo:
        for k in range(system.sanitizer.interval):  # next boundary, via the verbs
            system.read(k)
    assert expected in {v.check for v in excinfo.value.violations}


class _Probe:
    """Stands in for the check function a sweep calls; records each call."""

    def __init__(self):
        self.calls = 0
        self.result = []

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return list(self.result)


def _cache_sanitizer(interval, probe, monkeypatch):
    monkeypatch.setattr(sanitizer, "check_policy_cache", probe)
    return CacheSanitizer({"block": PolicyCache(64, "lru")}, interval=interval)


def _index_sanitizer(interval, probe, monkeypatch):
    monkeypatch.setattr(sanitizer, "check_indexy", probe)
    return IndexSanitizer(make_index(), interval=interval)


def _store_sanitizer(interval, probe, monkeypatch):
    return StoreSanitizer(EngineRuntime(), probe, interval=interval)


def _shard_sanitizer(interval, probe, monkeypatch):
    monkeypatch.setattr(sanitizer, "check_shard_router", probe)
    router = build_system("Sharded", memory_limit_bytes=256 * 1024, shards=2)
    return ShardSanitizer(router, interval=interval)


@pytest.mark.parametrize(
    "make", [_cache_sanitizer, _index_sanitizer, _store_sanitizer, _shard_sanitizer]
)
def test_orchestrator_cadence(make, monkeypatch):
    """One cadence for all four, driven through each class's real ``sweep``.

    Only the check function the sweep consults is a probe, so a sweep that
    stopped calling it (or stopped raising what it returns) fails here.
    """
    probe = _Probe()
    san = make(3, probe, monkeypatch)
    for __ in range(7):
        san.after_op()
    assert probe.calls == 2 and san.checks_run == 2  # ops 3 and 6
    san.after_batch(1)  # 8: no boundary
    san.after_batch(4)  # 12: crosses 9 and lands on 12 -> one sweep
    san.after_batch(0)  # empty batch: nothing to count
    assert probe.calls == 3 and san.checks_run == 3
    san.check_now()  # off-cadence sweep, still counted
    assert probe.calls == 4 and san.checks_run == 4
    probe.result = [Violation("fixture", "boom")]
    san.after_batch(2)  # 14: no boundary, so the bad check is not consulted
    assert probe.calls == 4
    with pytest.raises(CheckError) as excinfo:
        san.after_op()  # 15: boundary
    assert [v.check for v in excinfo.value.violations] == ["fixture"]
    assert make(0, probe, monkeypatch).interval == 1  # non-positive means every op

"""Unit and property tests for the adaptive radix tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import AdaptiveRadixTree, encode_int
from repro.art.nodes import InnerNode
from repro.sim import CostModel, SimClock


@pytest.fixture
def tree():
    return AdaptiveRadixTree()


def ikey(i: int) -> bytes:
    return encode_int(i)


# ----------------------------------------------------------------------
# basic operations
# ----------------------------------------------------------------------
def test_empty_tree_misses(tree):
    assert tree.search(ikey(42)) is None
    assert len(tree) == 0


def test_insert_and_search(tree):
    assert tree.insert(ikey(1), b"one") is True
    assert tree.search(ikey(1)) == b"one"
    assert tree.search(ikey(2)) is None
    assert len(tree) == 1


def test_overwrite_returns_false_and_keeps_count(tree):
    tree.insert(ikey(1), b"one")
    assert tree.insert(ikey(1), b"uno") is False
    assert tree.search(ikey(1)) == b"uno"
    assert len(tree) == 1


def test_many_random_inserts_roundtrip(tree):
    import random

    rng = random.Random(7)
    keys = rng.sample(range(10**9), 2000)
    for k in keys:
        tree.insert(ikey(k), str(k).encode())
    for k in keys:
        assert tree.search(ikey(k)) == str(k).encode()
    assert len(tree) == 2000


def test_sequential_inserts_roundtrip(tree):
    for k in range(1000):
        tree.insert(ikey(k), b"v%d" % k)
    for k in range(1000):
        assert tree.search(ikey(k)) == b"v%d" % k


def test_delete_removes_key(tree):
    tree.insert(ikey(5), b"five")
    tree.insert(ikey(6), b"six")
    assert tree.delete(ikey(5)) is True
    assert tree.search(ikey(5)) is None
    assert tree.search(ikey(6)) == b"six"
    assert tree.delete(ikey(5)) is False
    assert len(tree) == 1


def test_delete_everything_leaves_consistent_tree(tree):
    for k in range(300):
        tree.insert(ikey(k * 7), b"v")
    for k in range(300):
        assert tree.delete(ikey(k * 7)) is True
    assert len(tree) == 0
    tree.insert(ikey(1), b"back")
    assert tree.search(ikey(1)) == b"back"


def test_items_yield_sorted_order(tree):
    import random

    rng = random.Random(3)
    keys = rng.sample(range(10**6), 500)
    for k in keys:
        tree.insert(ikey(k), b"v")
    seen = [k for k, __ in tree.items()]
    assert seen == sorted(seen)
    assert len(seen) == 500


def test_scan_from_start_key(tree):
    for k in range(0, 100, 10):
        tree.insert(ikey(k), str(k).encode())
    result = tree.scan(ikey(25), 3)
    assert [k for k, __ in result] == [ikey(30), ikey(40), ikey(50)]


def test_scan_respects_count(tree):
    for k in range(50):
        tree.insert(ikey(k), b"v")
    assert len(tree.scan(ikey(0), 10)) == 10


def test_contains(tree):
    tree.insert(ikey(9), b"v")
    assert ikey(9) in tree
    assert ikey(10) not in tree


def test_variable_length_string_keys(tree):
    from repro.art import encode_str

    words = ["a", "ab", "abc", "b", "ba", "zebra", "zeal", "z"]
    for w in words:
        tree.insert(encode_str(w), w.encode())
    for w in words:
        assert tree.search(encode_str(w)) == w.encode()
    ordered = [k for k, __ in tree.items()]
    assert ordered == sorted(ordered)


# ----------------------------------------------------------------------
# bookkeeping invariants
# ----------------------------------------------------------------------
def check_leaf_counts(node) -> int:
    """Recursively verify leaf_count on every inner node."""
    if not isinstance(node, InnerNode):
        return 1
    total = sum(check_leaf_counts(child) for __, child in node.children_items())
    assert node.leaf_count == total, f"{node!r} claims {node.leaf_count}, actual {total}"
    return total


def test_leaf_counts_after_random_inserts(tree):
    import random

    rng = random.Random(11)
    for k in rng.sample(range(10**8), 1500):
        tree.insert(ikey(k), b"v")
    assert check_leaf_counts(tree.root) == 1500


def test_leaf_counts_after_deletes(tree):
    import random

    rng = random.Random(13)
    keys = rng.sample(range(10**8), 800)
    for k in keys:
        tree.insert(ikey(k), b"v")
    for k in keys[:400]:
        tree.delete(ikey(k))
    assert check_leaf_counts(tree.root) == 400


def test_dirty_bit_propagates_to_ancestors(tree):
    tree.insert(ikey(100), b"v", dirty=False)
    assert not tree.root.dirty
    tree.insert(ikey(200), b"v", dirty=True)
    assert tree.root.dirty


def test_clean_insert_does_not_dirty(tree):
    tree.insert(ikey(1), b"v", dirty=False)
    assert not tree.root.dirty
    assert not next(tree.iter_leaves(tree.root)).dirty


def test_iter_dirty_leaves_prunes_clean_subtrees(tree):
    for k in range(100):
        tree.insert(ikey(k), b"v", dirty=False)
    tree.insert(ikey(500), b"dirty-one", dirty=True)
    dirty = list(tree.iter_dirty_leaves(tree.root))
    assert [leaf.key for leaf in dirty] == [ikey(500)]


def test_clear_dirty_resets_subtree(tree):
    for k in range(50):
        tree.insert(ikey(k), b"v", dirty=True)
    tree.clear_dirty(tree.root)
    assert not tree.root.dirty
    assert list(tree.iter_dirty_leaves(tree.root)) == []


def test_memory_accounting_matches_subtree_walk(tree):
    import random

    rng = random.Random(17)
    for k in rng.sample(range(10**8), 1000):
        tree.insert(ikey(k), b"x" * 8)
    assert tree.memory_bytes == tree.subtree_memory(tree.root)


def test_memory_accounting_after_deletes(tree):
    import random

    rng = random.Random(19)
    keys = rng.sample(range(10**8), 600)
    for k in keys:
        tree.insert(ikey(k), b"x" * 8)
    for k in keys[:300]:
        tree.delete(ikey(k))
    assert tree.memory_bytes == tree.subtree_memory(tree.root)


def test_memory_tracks_value_overwrite_size(tree):
    # Values up to 8 bytes embed in the pointer word (footprint 0); longer
    # ones pay the leaf overhead plus their length.  Overwrites across the
    # embed threshold must keep the incremental account exact.
    tree.insert(ikey(1), b"small")
    assert tree.memory_bytes == tree.subtree_memory(tree.root)
    tree.insert(ikey(1), b"a-much-longer-value")
    assert tree.memory_bytes == tree.subtree_memory(tree.root)
    tree.insert(ikey(1), b"tiny")  # back under the embed threshold
    assert tree.memory_bytes == tree.subtree_memory(tree.root)


def test_art_is_more_compact_than_pages():
    """The structural claim behind Figure 3: ART holds keys compactly."""
    tree = AdaptiveRadixTree()
    n = 2000
    for k in range(n):
        tree.insert(ikey(k), b"v" * 8)
    bytes_per_key = tree.memory_bytes / n
    assert bytes_per_key < 120  # a 4 KB-page B+ tree at 50% fill is far above this


# ----------------------------------------------------------------------
# framework hooks
# ----------------------------------------------------------------------
def test_partition_covers_all_keys(tree):
    import random

    rng = random.Random(23)
    for k in rng.sample(range(10**8), 1200):
        tree.insert(ikey(k), b"v")
    entries = tree.partition(depth=2)
    assert sum(e.node.leaf_count for e in entries) == 1200


def test_partition_depth_zero_is_root(tree):
    tree.insert(ikey(1), b"v")
    entries = tree.partition(depth=0)
    assert len(entries) == 1
    assert entries[0].node is tree.root
    assert entries[0].parent is None


def test_partition_entries_are_disjoint(tree):
    import random

    rng = random.Random(29)
    for k in rng.sample(range(10**8), 800):
        tree.insert(ikey(k), b"v")
    entries = tree.partition(depth=3)
    ids = [id(e.node) for e in entries]
    assert len(ids) == len(set(ids))
    # No entry may be an ancestor of another: ancestor chains never contain
    # a different entry's node.
    nodes = set(ids)
    for e in entries:
        assert not any(id(a) in nodes for a in e.ancestors)


def test_detach_removes_subtree_and_adjusts_counts(tree):
    import random

    rng = random.Random(31)
    keys = rng.sample(range(10**8), 1000)
    for k in keys:
        tree.insert(ikey(k), b"v")
    entries = tree.partition(depth=1)
    victim = max(entries, key=lambda e: e.node.leaf_count)
    removed = victim.node.leaf_count
    detached_keys = [leaf.key for leaf in tree.iter_leaves(victim.node)]
    tree.detach(victim)
    assert len(tree) == 1000 - removed
    for key in detached_keys:
        assert tree.search(key) is None
    assert check_leaf_counts(tree.root) == 1000 - removed
    assert tree.memory_bytes == tree.subtree_memory(tree.root)


def test_detach_root_empties_tree(tree):
    for k in range(10):
        tree.insert(ikey(k), b"v")
    entries = tree.partition(depth=0)
    tree.detach(entries[0])
    assert len(tree) == 0
    assert tree.search(ikey(3)) is None


def test_access_counters_sampled(tree):
    for k in range(64):
        tree.insert(ikey(k), b"v")
    tree.tracking_enabled = True
    tree.sample_every = 1
    before = tree.root.access_count
    for __ in range(10):
        tree.search(ikey(5))
    assert tree.root.access_count == before + 10


def test_access_counters_disabled_by_default(tree):
    tree.insert(ikey(1), b"v")
    tree.search(ikey(1))
    assert tree.root.access_count == 0


def test_sampling_reduces_counter_updates(tree):
    for k in range(64):
        tree.insert(ikey(k), b"v")
    tree.tracking_enabled = True
    tree.sample_every = 5
    for __ in range(100):
        tree.search(ikey(5))
    assert tree.root.access_count == 20


def test_reset_access_counts(tree):
    tree.tracking_enabled = True
    for k in range(32):
        tree.insert(ikey(k), b"v")
    tree.search(ikey(1))
    tree.reset_access_counts(tree.root)
    assert tree.root.access_count == 0


# ----------------------------------------------------------------------
# CPU charging
# ----------------------------------------------------------------------
def test_operations_charge_simulated_cpu():
    clock = SimClock()
    tree = AdaptiveRadixTree(clock=clock, costs=CostModel())
    tree.insert(ikey(1), b"v")
    after_insert = clock.cpu_ns
    assert after_insert > 0
    tree.search(ikey(1))
    assert clock.cpu_ns > after_insert


def test_deeper_trees_charge_more():
    clock_a = SimClock()
    shallow = AdaptiveRadixTree(clock=clock_a)
    shallow.insert(ikey(1), b"v")
    clock_a.reset()
    shallow.search(ikey(1))
    shallow_cost = clock_a.cpu_ns

    clock_b = SimClock()
    deep = AdaptiveRadixTree(clock=clock_b)
    import random

    rng = random.Random(37)
    for k in rng.sample(range(10**12), 5000):
        deep.insert(ikey(k), b"v")
    probe = ikey(rng.sample(range(10**12), 1)[0])
    deep.insert(probe, b"v")
    clock_b.reset()
    deep.search(probe)
    assert clock_b.cpu_ns > shallow_cost


# ----------------------------------------------------------------------
# property-based: tree behaves exactly like a sorted dict
# ----------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["put", "del", "get"]),
            st.integers(min_value=0, max_value=500),
        ),
        max_size=300,
    )
)
def test_matches_reference_model(ops):
    tree = AdaptiveRadixTree()
    model: dict[bytes, bytes] = {}
    for op, k in ops:
        key = ikey(k)
        if op == "put":
            value = b"v%d" % k
            assert tree.insert(key, value) == (key not in model)
            model[key] = value
        elif op == "del":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert tree.search(key) == model.get(key)
    assert len(tree) == len(model)
    assert [k for k, __ in tree.items()] == sorted(model)
    assert tree.memory_bytes == tree.subtree_memory(tree.root)
    check_leaf_counts(tree.root)


@settings(max_examples=30, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=2**40), min_size=1, max_size=200))
def test_scan_matches_sorted_reference(keys):
    tree = AdaptiveRadixTree()
    for k in keys:
        tree.insert(ikey(k), b"v")
    ordered = sorted(ikey(k) for k in keys)
    start = ordered[len(ordered) // 2]
    expect = [k for k in ordered if k >= start][:10]
    assert [k for k, __ in tree.scan(start, 10)] == expect

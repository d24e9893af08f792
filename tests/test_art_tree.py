"""Unit and property tests for the adaptive radix tree."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import AdaptiveRadixTree, encode_int
from repro.art.nodes import InnerNode, Node4, Node16, Node48, Node256
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


# ----------------------------------------------------------------------
# ordered walks: the seek and the ordered child lists
# ----------------------------------------------------------------------
#: Fan-out ranges that leave a node in each layout (grown, never shrunk).
LAYOUT_FANOUTS = {Node4: (2, 4), Node16: (5, 16), Node48: (17, 48), Node256: (49, 256)}
KEY_LEN = 6


def group(head: int, middle: bytes, fan_bytes) -> set[bytes]:
    """Keys sharing ``head`` and ``middle`` that fan out on one byte.

    All keys are ``KEY_LEN`` long, so none is a prefix of another; the
    node the group hangs from carries ``middle`` as its compressed prefix.
    """
    return {(bytes([head]) + middle + bytes([b])).ljust(KEY_LEN, b"z") for b in fan_bytes}


@st.composite
def shaped_trees(draw):
    """A tree holding every layout and compressed prefixes, after deletes.

    One untouched group per layout (distinct head bytes, non-empty
    middles) pins all four layouts.  Free groups share heads and
    middles among themselves, so prefixes split part way; a shrink
    group is filled past a Node48 and then deleted down, and a random
    share of the free keys is deleted too.
    """
    heads = draw(st.lists(st.integers(0, 255), min_size=6, max_size=6, unique=True))
    # Middle bytes leave room for a start one below and one above them.
    middle = st.lists(st.integers(1, 254), min_size=1, max_size=3).map(bytes)

    def fans(lo, hi):
        return st.lists(st.integers(0, 255), min_size=lo, max_size=hi, unique=True)

    pinned: set[bytes] = set()
    for head, (lo, hi) in zip(heads, LAYOUT_FANOUTS.values()):
        pinned |= group(head, draw(middle), draw(fans(lo, hi)))
    free: set[bytes] = set()
    for __ in range(draw(st.integers(0, 6))):
        head = draw(st.sampled_from(heads[4:]))
        shared = st.sampled_from([b"\x22", b"\x80", b"\x80\x40", b"\x81"])
        free |= group(head, draw(shared | middle), draw(fans(1, 20)))
    shrink_fan = draw(fans(49, 120))
    keep = draw(st.integers(1, len(shrink_fan)))
    shrunk = group(heads[5], b"\x22", shrink_fan[keep:])
    kept = pinned | free | group(heads[5], b"\x22", shrink_fan[:keep])
    tree = AdaptiveRadixTree()
    for key in sorted(kept | shrunk, key=lambda k: k[::-1]):
        tree.insert(key, key[::-1])
    if free:
        shrunk |= set(draw(st.lists(st.sampled_from(sorted(free)), unique=True)))
    for key in sorted(shrunk):
        assert tree.delete(key)
    return tree, {key: key[::-1] for key in kept - shrunk}


def inner_nodes(tree):
    """Every inner node with the depth its compressed prefix starts at."""
    out, stack = [], [(tree.root, 0)]
    while stack:
        node, depth = stack.pop()
        out.append((node, depth))
        below = depth + len(node.prefix) + 1
        stack.extend((c, below) for __, c in node.children_items() if isinstance(c, InnerNode))
    return out


def seek_starts(tree, model) -> list[bytes]:
    """Starts on, between, before, past, shorter than and inside a prefix of the keys."""
    ordered = sorted(model)
    first, middle, last = ordered[0], ordered[len(ordered) // 2], ordered[-1]
    starts = [first, middle, last, middle + b"\x00", b"", b"\x00", b"\xff" * (KEY_LEN + 1)]
    starts += [middle[:1], middle[:3], last[:2]]
    inside_prefix = []
    for node, depth in inner_nodes(tree):
        key = next(tree.iter_leaves(node)).key
        for i, byte in enumerate(node.prefix):
            at = depth + i
            if byte > 0:  # sorts below the whole subtree
                inside_prefix.append(key[:at] + bytes([byte - 1]) + b"\xff")
            if byte < 255:  # sorts above it
                inside_prefix.append(key[:at] + bytes([byte + 1]) + b"\x00")
    assert inside_prefix
    return starts + inside_prefix


@settings(max_examples=40, deadline=None)
@given(shaped_trees(), st.integers(min_value=1, max_value=60))
def test_seek_matches_the_sorted_reference_from_every_kind_of_start(shaped, count):
    tree, model = shaped
    nodes = inner_nodes(tree)
    assert {type(node) for node, __ in nodes} == set(LAYOUT_FANOUTS)
    reference = sorted(model.items())
    assert list(tree.items()) == reference
    for start in seek_starts(tree, model):
        expect = [kv for kv in reference if kv[0] >= start]
        assert list(tree.items(start)) == expect, start
        assert tree.scan(start, count) == expect[:count], start


@settings(max_examples=20, deadline=None)
@given(shaped_trees())
def test_ordered_child_lists_match_children_items_on_every_layout(shaped):
    tree, __ = shaped
    for node, __ in inner_nodes(tree):
        pairs = list(node.children_items())
        assert node.ordered_children() == [child for __, child in pairs]
        assert [node.byte_of(child) for __, child in pairs] == [b for b, __ in pairs]
        for byte in {0, 255, *(b for b, __ in pairs), *(b + 1 for b, __ in pairs if b < 255)}:
            assert node.children_after(byte) == [c for b, c in pairs if b > byte], byte


def test_scan_charges_one_visit_per_pair_plus_one_wherever_start_lands():
    costs = CostModel()
    clock = SimClock()
    tree = AdaptiveRadixTree(clock=clock, costs=costs)
    for k in range(0, 3000, 3):
        tree.insert(ikey(k * 1009), b"v" * 12)
    model = dict(tree.items())
    starts = seek_starts(tree, model) + [ikey(k * 1009 + 1) for k in range(0, 3000, 97)]
    for start in starts:
        for count in (1, 7, 50, 5000):
            clock.reset()
            out = tree.scan(start, count)
            assert clock.cpu_ns == (len(out) + 1) * costs.art_node_visit, (start, count)

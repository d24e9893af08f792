"""Unit and property tests for the on-disk B+ tree."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import encode_int
from repro.check.sanitizer import check_disk_btree
from repro.diskbtree import DiskBPlusTree
from repro.sim import EngineRuntime
from repro.systems import build_system


def ikey(i: int) -> bytes:
    return encode_int(i)


def make_tree(pool_pages=64, page_size=1024):
    runtime = EngineRuntime()
    tree = DiskBPlusTree(runtime, pool_bytes=pool_pages * page_size, page_size=page_size)
    return tree, runtime.disk


def test_put_get():
    tree, __ = make_tree()
    assert tree.put(ikey(1), b"one") is True
    assert tree.get(ikey(1)) == b"one"
    assert tree.get(ikey(2)) is None


def test_overwrite():
    tree, __ = make_tree()
    tree.put(ikey(1), b"one")
    assert tree.put(ikey(1), b"uno") is False
    assert tree.get(ikey(1)) == b"uno"
    assert len(tree) == 1


def test_many_random_inserts():
    tree, __ = make_tree()
    rng = random.Random(3)
    keys = rng.sample(range(10**8), 3000)
    for k in keys:
        tree.put(ikey(k), str(k).encode())
    for k in keys[::31]:
        assert tree.get(ikey(k)) == str(k).encode()
    assert len(tree) == 3000
    assert tree.stats["leaf_splits"] > 0


def test_sequential_inserts_and_items():
    tree, __ = make_tree()
    for k in range(2000):
        tree.put(ikey(k), b"v")
    assert [k for k, __v in tree.items()] == [ikey(k) for k in range(2000)]


def test_scan_follows_leaf_chain():
    tree, __ = make_tree()
    for k in range(0, 1000, 5):
        tree.put(ikey(k), str(k).encode())
    got = tree.scan(ikey(123), 20)
    assert [k for k, __ in got] == [ikey(125 + 5 * i) for i in range(20)]


def test_scan_past_end():
    tree, __ = make_tree()
    for k in range(10):
        tree.put(ikey(k), b"v")
    assert len(tree.scan(ikey(8), 100)) == 2


def test_delete():
    tree, __ = make_tree()
    for k in range(500):
        tree.put(ikey(k), b"v")
    assert tree.delete(ikey(250)) is True
    assert tree.get(ikey(250)) is None
    assert tree.delete(ikey(250)) is False
    assert len(tree) == 499


def test_data_survives_eviction():
    """Everything remains reachable when the pool is far smaller than the data."""
    tree, disk = make_tree(pool_pages=8, page_size=1024)
    rng = random.Random(7)
    keys = rng.sample(range(10**8), 2000)
    for k in keys:
        tree.put(ikey(k), b"v" * 16)
    assert disk.stats["writes"] > 0  # evictions forced write-backs
    for k in keys[::53]:
        assert tree.get(ikey(k)) == b"v" * 16


def test_random_inserts_cause_random_io():
    """The structural weakness of B+ as Index Y: scattered leaf writes."""
    tree, disk = make_tree(pool_pages=8, page_size=1024)
    rng = random.Random(11)
    for k in rng.sample(range(10**8), 3000):
        tree.put(ikey(k), b"v" * 16)
    assert disk.stats["rand_writes"] > disk.stats["seq_writes"]


def test_page_size_changes_fanout():
    small, __ = make_tree(pool_pages=256, page_size=512)
    large, __d = make_tree(pool_pages=32, page_size=4096)
    for k in range(3000):
        small.put(ikey(k), b"v")
        large.put(ikey(k), b"v")
    assert small.stats["leaf_splits"] > large.stats["leaf_splits"]


def test_memory_bounded_by_pool():
    tree, __ = make_tree(pool_pages=16, page_size=1024)
    for k in range(5000):
        tree.put(ikey(k), b"v" * 8)
    assert tree.memory_bytes <= 16 * 1024


def test_cpu_charged_per_level():
    runtime = EngineRuntime()
    tree = DiskBPlusTree(runtime, pool_bytes=64 * 1024, page_size=1024)
    tree.put(ikey(1), b"v")
    assert runtime.clock.cpu_ns > 0


def test_flush_all_persists_everything():
    tree, disk = make_tree(pool_pages=64)
    for k in range(200):
        tree.put(ikey(k), b"v")
    tree.flush_all()
    assert disk.stats["writes"] > 0


def test_entry_larger_than_a_page_is_rejected_up_front():
    tree = DiskBPlusTree(EngineRuntime(), 2 * 4096)
    for k in range(300):
        tree.put(ikey(k), b"v%d" % k)
    with pytest.raises(ValueError, match="4096-byte page"):
        tree.put(b"a", b"x" * 5000)
    with pytest.raises(ValueError, match="4096-byte page"):
        tree.put(ikey(7), b"x" * 5000)  # an overwrite is refused too
    tree.flush_all()
    assert len(tree) == 300
    assert tree.get(b"a") is None
    assert all(tree.get(ikey(k)) == b"v%d" % k for k in range(300))


def test_bplus_bplus_rejects_an_entry_larger_than_a_page():
    system = build_system("B+-B+", memory_limit_bytes=2 * 4096)
    for k in range(300):
        system.insert(k, b"v%d" % k)
    with pytest.raises(ValueError, match="4096-byte page"):
        system.insert(1000, b"x" * 5000)
    system.flush()
    assert system.read(1000) is None
    assert all(system.read(k) == b"v%d" % k for k in range(300))


def test_overwrite_with_a_longer_value_splits_the_leaf():
    tree, __ = make_tree(pool_pages=4, page_size=512)
    for k in range(20):
        tree.put(ikey(k), b"v")
    assert tree.stats["leaf_splits"] == 0
    assert tree.put(ikey(3), b"x" * 300) is False
    assert tree.stats["leaf_splits"] == 1
    tree.flush_all()  # every page fits its frame
    assert tree.get(ikey(3)) == b"x" * 300
    assert [k for k, __ in tree.items()] == [ikey(k) for k in range(20)]


def leaf_keys(tree: DiskBPlusTree) -> list[list[int]]:
    """Each leaf's keys, as integers, along the leaf chain."""
    leaves = []
    pid = tree._leftmost_leaf()
    while pid is not None:
        page = tree.pool.get_page(pid)
        leaves.append([int.from_bytes(k, "big") for k in page.keys])
        pid = page.next_leaf
    return leaves


@pytest.mark.parametrize(
    ("big", "leaves"),
    [
        # The middle cut would leave the 4 050-byte value with 49 small
        # entries on one 4 096-byte page: it gets a leaf of its own.
        (50, [list(range(50)), [50], list(range(51, 100))]),
        # Nothing sorts before it, so two leaves are enough.
        (0, [[0], list(range(1, 100))]),
        (99, [list(range(99)), [99]]),
    ],
)
def test_a_near_page_size_entry_gets_a_leaf_of_its_own(big, leaves):
    tree, __ = make_tree(pool_pages=64, page_size=4096)
    for k in range(100):
        tree.put(ikey(k), b"%02d" % k)
    tree.put(ikey(big), b"x" * 4050)
    tree.flush_all()  # every page fits its frame
    assert leaf_keys(tree) == leaves
    assert tree.stats["leaf_splits"] == len(leaves) - 1
    assert tree.get(ikey(big)) == b"x" * 4050
    assert all(tree.get(ikey(k)) == b"%02d" % k for k in range(100) if k != big)


@pytest.mark.parametrize("seed", range(8))
def test_long_separators_split_an_inner_page_by_bytes(seed):
    # Every other key is 100 bytes to the longest a separator may be: cut
    # at its middle separator, an inner page can keep too many long ones
    # on one side.
    tree, __ = make_tree(pool_pages=64, page_size=512)
    rng = random.Random(seed)
    model = {}
    for n in range(50):
        key = ikey(rng.randrange(1000))
        if n % 2 == 0:
            key += b"k" * rng.randrange(100, tree.max_key_bytes - 8)
        tree.put(key, b"v")
        model[key] = b"v"
    tree.flush_all()  # every page fits its frame
    assert tree.stats["inner_splits"] > 0
    assert list(tree.items()) == sorted(model.items())


def test_a_root_grown_with_two_long_separators_splits():
    # A leaf cut around its largest entry hands two separators (198 and 26
    # bytes) to a root that does not exist yet; together they overflow a
    # 256-byte page, so the fresh root splits and the tree grows twice.
    tree, __ = make_tree(pool_pages=2, page_size=256)
    long_key = ikey(0) + b"k" * 190
    short_key = ikey(1) + b"k" * 18
    for key in (ikey(0), long_key, short_key):
        tree.put(key, b"")
    tree.flush_all()  # every page fits its frame
    assert check_disk_btree(tree) == []
    assert tree.stats["height_growths"] == 2
    assert list(tree.items()) == [(ikey(0), b""), (long_key, b""), (short_key, b"")]


def test_a_key_longer_than_one_separator_page_is_refused():
    tree, __ = make_tree(pool_pages=64, page_size=4096)
    assert tree.max_key_bytes == 4096 - 32 - 2 - 2 * 8
    tree.put(b"k" * tree.max_key_bytes, b"")
    with pytest.raises(ValueError, match="4096-byte page"):
        tree.put(b"k" * (tree.max_key_bytes + 1), b"")
    assert len(tree) == 1


def test_put_batch():
    tree, __ = make_tree()
    tree.put_batch([(ikey(k), b"v") for k in range(100)])
    assert len(tree) == 100


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from(["put", "del", "get"]), st.integers(0, 300)),
        max_size=200,
    )
)
def test_matches_reference_model(ops):
    tree, __ = make_tree(pool_pages=4, page_size=512)
    model: dict[bytes, bytes] = {}
    for op, k in ops:
        key = ikey(k)
        if op == "put":
            value = b"v%d" % k
            assert tree.put(key, value) == (key not in model)
            model[key] = value
        elif op == "del":
            assert tree.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert tree.get(key) == model.get(key)
    assert len(tree) == len(model)
    assert list(tree.items()) == sorted(model.items())


def test_art_bplus_refuses_an_entry_larger_than_a_page_before_index_x():
    system = build_system("ART-B+", memory_limit_bytes=256 * 1024)
    for k in range(100):
        system.insert(k, b"v%d" % k)
    ops = system.stats["ops"]
    with pytest.raises(ValueError, match="Index Y's limits"):
        system.insert(1000, b"x" * 5000)
    with pytest.raises(ValueError, match="Index Y's limits"):
        system.put_many([1001, 1002], b"x" * 5000)
    with pytest.raises(ValueError, match="Index Y's limits"):
        system.update(7, b"x" * 5000)  # an overwrite is refused too
    assert system.stats["ops"] == ops  # a refused entry is not an op
    system.flush()  # nothing oversized reached Index X, so nothing fails here
    assert [system.read(k) for k in (1000, 1001, 1002)] == [None, None, None]
    assert all(system.read(k) == b"v%d" % k for k in range(100))
    system.insert(2000, b"y" * 3000)  # a large entry that fits is written to Y
    system.flush()
    assert system.read(2000) == b"y" * 3000
    # The refusal starts one byte past what an empty page holds.
    largest = 4096 - 32 - 6 - 8
    fresh = build_system("ART-B+", memory_limit_bytes=256 * 1024)
    fresh.insert(1, b"z" * largest)
    with pytest.raises(ValueError, match="Index Y's limits"):
        fresh.insert(2, b"z" * (largest + 1))

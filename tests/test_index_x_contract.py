"""The "any Index X" contract: what ``core/`` asks of an in-memory index.

Both trees implement :class:`repro.core.interfaces.IndexX` themselves.
Each test drives one protocol member the way ``core/`` does (``release``,
``precleaner``, ``indexy``) and checks the tree against a dict model, so a
third Index X has one file to pass.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.art import AdaptiveRadixTree, encode_int
from repro.btree import BPlusTree
from repro.core import IndeXY, IndeXYConfig
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime

TREES = {"art": AdaptiveRadixTree, "btree": partial(BPlusTree, capacity=16)}


@pytest.fixture(params=sorted(TREES))
def make_x(request):
    return TREES[request.param]


def fill(x, n=3000, seed=11, dirty=True):
    """Insert ``n`` spread keys; returns the dict model."""
    rng = random.Random(seed)
    model = {encode_int(k): b"v%07d" % (k % 10**7) for k in rng.sample(range(10**8), n)}
    for key, value in model.items():
        x.insert(key, value, dirty)
    return model


def walk(x, ref):
    """Every ref reachable through ``child_refs``, ``ref`` included."""
    out = [ref]
    for child in x.child_refs(ref):
        out.extend(walk(x, child))
    return out


def keys_under(x, node):
    """Keys below ``node`` (``fill`` leaves every key dirty by default)."""
    return [key for key, __ in x.iter_dirty_entries(node)]


def fan_out(x, at_least=3):
    """The child refs of the topmost ref that has ``at_least`` of them."""
    ref = x.root_ref()
    while len(x.child_refs(ref)) < at_least:
        ref = x.child_refs(ref)[0]
    return ref, x.child_refs(ref)


def test_key_value_verbs_match_a_dict(make_x):
    x = make_x()
    model = fill(x)
    rng = random.Random(5)
    for key in rng.sample(sorted(model), 400):
        assert x.delete(key) is True
        assert x.delete(key) is False
        del model[key]
    for key in rng.sample(sorted(model), 200):
        assert x.insert(key, b"again") is False
        model[key] = b"again"
    assert x.key_count == len(model)
    assert list(x.items()) == sorted(model.items())
    for key in rng.sample(sorted(model), 100):
        assert x.search(key) == model[key]
    assert x.search(encode_int(10**9)) is None
    start = sorted(model)[len(model) // 2]
    assert x.scan(start, 25) == [kv for kv in sorted(model.items()) if kv[0] >= start][:25]
    assert x.memory_bytes == x.subtree_memory(x.root_ref().node)


@pytest.mark.parametrize("count", [0, -1])
def test_scan_for_no_entries_returns_nothing_and_charges_nothing(make_x, count):
    runtime = EngineRuntime()
    x = make_x(clock=runtime.clock)
    model = fill(x, n=200)
    before = runtime.clock.cpu_ns
    assert x.scan(min(model), count) == []
    assert runtime.clock.cpu_ns == before


def test_child_refs_are_disjoint_and_cover_the_inner_children(make_x):
    x = make_x()
    model = fill(x)
    root = x.root_ref()
    assert root.node is x.root and root.ancestors == []
    parent, children = fan_out(x)
    assert len({id(ref.node) for ref in children}) == len(children)
    for ref in children:
        assert ref.ancestors == parent.ancestors + [parent.node]
    covered = [key for ref in children for key in keys_under(x, ref.node)]
    assert len(covered) == len(set(covered))
    # Whatever child_refs leaves out hangs off the parent as a bare leaf.
    assert set(covered) <= set(keys_under(x, parent.node))
    assert sum(ref.node.leaf_count for ref in children) == len(covered)
    assert x.subtree_memory(parent.node) > sum(x.subtree_memory(ref.node) for ref in children)
    # partition(depth) yields the same kind of ref, disjoint and covering.
    regions = x.partition(2)
    assert sorted(k for ref in regions for k in keys_under(x, ref.node)) == sorted(model)


@pytest.mark.parametrize("name", sorted(TREES))
@settings(max_examples=40, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from("iiid"),
            st.integers(min_value=0, max_value=2**12),  # dense: every ART layout
            st.integers(min_value=0, max_value=16),  # ART embeds values up to 8 bytes
        ),
        min_size=40,
        max_size=400,
    ),
    st.lists(st.integers(min_value=0, max_value=10**6), max_size=3),
)
def test_subtree_sizes_match_subtree_memory_after_any_edits(name, ops, detaches):
    x = TREES[name]()
    for op, k, value_len in ops:
        if op == "i":
            x.insert(encode_int(k), b"v" * value_len)
        else:
            x.delete(encode_int(k))
    for pick in detaches:
        refs = walk(x, x.root_ref())
        x.detach(refs[pick % len(refs)])
    refs = walk(x, x.root_ref())
    sizes, children = x.subtree_sizes(x.root_ref().node)
    assert {id(n) for n in sizes} == {id(ref.node) for ref in refs}
    for ref in refs:
        assert sizes[ref.node] == x.subtree_memory(ref.node)
        assert children.get(ref.node, []) == [child.node for child in x.child_refs(ref)]
        assert x.subtree_ref(ref.node, ref.ancestors) == ref


def test_detach_returns_exactly_the_bytes_it_removed(make_x):
    x = make_x()
    model = fill(x)
    for ref in fan_out(x, at_least=4)[1][:2]:  # the parent keeps children
        gone = keys_under(x, ref.node)
        assert gone
        bytes_before, keys_before = x.memory_bytes, x.key_count
        size = x.subtree_memory(ref.node)
        assert x.detach(ref) == size == bytes_before - x.memory_bytes
        assert x.key_count == keys_before - len(gone)
        for key in gone:
            assert x.search(key) is None
            del model[key]
    assert list(x.items()) == sorted(model.items())
    assert x.memory_bytes == x.subtree_memory(x.root_ref().node)
    assert x.root_ref().node.leaf_count == len(model)


def test_dirty_entries_are_ordered_and_clear_dirty_empties_them(make_x):
    x = make_x()
    clean = fill(x, n=1500, seed=1, dirty=False)
    dirty = fill(x, n=1500, seed=2, dirty=True)
    root = x.root_ref().node
    assert list(x.iter_dirty_entries(root)) == sorted(dirty.items())
    ref = fan_out(x)[1][0]
    under = list(x.iter_dirty_entries(ref.node))
    assert under and under == sorted(under)
    x.clear_dirty(ref.node)
    assert list(x.iter_dirty_entries(ref.node)) == []
    assert list(x.iter_dirty_entries(root)) == sorted(set(dirty.items()) - set(under))
    x.clear_dirty(root)
    assert list(x.iter_dirty_entries(root)) == []
    assert not any(r.node.dirty for r in walk(x, x.root_ref()))
    assert dict(x.items()) == {**clean, **dirty}


def test_tracking_samples_and_reset_zeroes_every_counter(make_x):
    x = make_x()
    model = fill(x)
    for key in sorted(model)[:200]:
        x.search(key)
    refs = walk(x, x.root_ref())
    assert all(ref.node.access_count == 0 for ref in refs)  # tracking is off
    x.enable_tracking(sample_every=2)
    for key in sorted(model)[:200]:
        x.search(key)
    assert x.root.access_count == 100
    assert sum(1 for ref in refs if ref.node.access_count) > 1
    x.reset_access_counts()
    assert all(ref.node.access_count == 0 for ref in refs)


def test_indexy_over_each_tree_survives_release_and_flush_sanitized(make_x):
    runtime = EngineRuntime()
    index = IndeXY(
        make_x(clock=runtime.clock),
        LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024)),
        IndeXYConfig(memory_limit_bytes=128 * 1024, preclean_interval_inserts=512),
        runtime,
        debug_checks=True,
        debug_check_interval=64,
    )
    rng = random.Random(3)
    model = {encode_int(k): b"v" * 8 for k in rng.sample(range(10**8), 6000)}
    for key, value in model.items():
        index.insert(key, value)
    assert index.stats["release_cycles"] >= 1
    assert index.x.key_count < len(model)
    index.flush()
    assert list(index.x.iter_dirty_entries(index.x.root_ref().node)) == []
    for key in sorted(model)[::53]:
        assert index.get(key) == model[key]
    start = sorted(model)[1000]
    assert index.scan(start, 40) == [kv for kv in sorted(model.items()) if kv[0] >= start][:40]

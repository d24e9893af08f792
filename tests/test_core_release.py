"""Unit tests for Algorithm 1 (access-density subtree selection)."""

import bisect
import random
from dataclasses import dataclass

import pytest

from repro.art import AdaptiveRadixTree, encode_int
from repro.btree import BPlusTree
from repro.core import IndeXY, IndeXYConfig, ReleasePolicy, select_for_release
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime


def ikey(i: int) -> bytes:
    return encode_int(i)


def build_art_with_hot_cold(n=4000):
    """Keys 0..n-1; the lower half of the key space is read-hot."""
    x = AdaptiveRadixTree()
    rng = random.Random(42)
    for k in rng.sample(range(n), n):
        x.insert(ikey(k), b"v")
    x.enable_tracking(sample_every=1)
    for __ in range(5):
        for k in range(0, n // 2, 3):
            x.search(ikey(k))
    return x


def subtree_keys(x, ref):
    return [k for k, __ in x.iter_dirty_entries(ref.node)]


def test_zero_target_selects_nothing():
    x = build_art_with_hot_cold()
    assert select_for_release(x, 0) == []


def test_selection_reaches_target_size():
    x = build_art_with_hot_cold()
    target = x.memory_bytes // 4
    refs = select_for_release(x, target)
    total = sum(x.subtree_memory(r.node) for r in refs)
    assert total >= target


def test_selection_prefers_cold_subtrees():
    x = build_art_with_hot_cold(n=4000)
    target = x.memory_bytes // 4
    refs = select_for_release(x, target)
    released_keys = []
    for ref in refs:
        released_keys.extend(subtree_keys(x, ref))
    # Hot keys live in [0, n/2); the released set must be mostly cold.
    cold = sum(1 for k in released_keys if int.from_bytes(k, "big") >= 2000)
    assert released_keys
    assert cold / len(released_keys) > 0.8


def test_selected_refs_are_disjoint():
    x = build_art_with_hot_cold()
    refs = select_for_release(x, x.memory_bytes // 3)
    nodes = {id(r.node) for r in refs}
    assert len(nodes) == len(refs)
    for ref in refs:
        assert not any(id(a) in nodes for a in ref.ancestors)


def test_whole_tree_when_target_exceeds_size():
    x = build_art_with_hot_cold(n=500)
    refs = select_for_release(x, x.memory_bytes * 10)
    total = sum(x.subtree_memory(r.node) for r in refs)
    # Everything splittable is taken (root or all its subtrees).
    assert total >= 0.5 * x.memory_bytes


def test_detaching_selection_frees_target():
    x = build_art_with_hot_cold()
    before = x.memory_bytes
    target = before // 4
    refs = select_for_release(x, target)
    for ref in refs:
        x.detach(ref)
    assert x.memory_bytes <= before - target * 0.9


def test_btree_adapter_supported():
    x = BPlusTree(capacity=16)
    rng = random.Random(7)
    for k in rng.sample(range(10**7), 3000):
        x.insert(ikey(k), b"v")
    x.enable_tracking(1)
    for k in range(0, 100):
        x.search(ikey(k))
    refs = select_for_release(x, x.memory_bytes // 4)
    assert refs
    before = x.memory_bytes
    for ref in refs:
        x.detach(ref)
    assert x.memory_bytes < before


def test_release_policy_kinds():
    with pytest.raises(ValueError):
        ReleasePolicy("nope")
    x = build_art_with_hot_cold(n=2000)
    for kind in ("density", "coarse", "random"):
        policy = ReleasePolicy(kind, partition_depth=1)
        refs = policy.select(x, x.memory_bytes // 8)
        assert refs


def test_random_policy_ignores_density():
    x = build_art_with_hot_cold(n=4000)
    target = x.memory_bytes // 4
    random_refs = ReleasePolicy("random", partition_depth=2).select(x, target)
    keys = []
    for ref in random_refs:
        keys.extend(subtree_keys(x, ref))
    hot = sum(1 for k in keys if int.from_bytes(k, "big") < 2000)
    # Random eviction hits the hot half roughly proportionally.
    assert hot > 0


# ----------------------------------------------------------------------
# Selection sizes every candidate from one ``subtree_sizes`` walk and keeps
# SplitAndReplace's by-size order across rounds; what it picks is pinned
# against the version that walked each candidate's subtree and re-sorted
# every candidate on every round.
# ----------------------------------------------------------------------
@dataclass
class _ReferenceCandidate:
    ref: object
    size: int
    density: float
    children: list | None = None


def _reference_candidate(index_x, ref):
    node = ref.node
    density = node.access_count / max(1, node.leaf_count)
    return _ReferenceCandidate(ref=ref, size=index_x.subtree_memory(node), density=density)


def _reference_select(index_x, target_bytes, rounds):
    """``select_for_release`` as it was before ``subtree_sizes``: a
    ``subtree_memory`` walk per candidate, ``child_refs`` per inspected
    candidate and a full by-size sort on every round.  Appends the number
    of split rounds it took to ``rounds``."""
    margin = 0.10 * target_bytes  # Algorithm 1's margin
    variation_threshold = 0.20  # and its 20 % spread
    candidates = [_reference_candidate(index_x, index_x.root_ref())]
    rounds.append(0)
    while True:
        total = 0
        chosen_end = None
        for pos, cand in enumerate(candidates):
            total += cand.size
            if total < target_bytes:
                continue
            if total <= target_bytes + margin:
                chosen_end = pos
            break
        else:
            return [c.ref for c in candidates]
        if chosen_end is not None:
            return [c.ref for c in candidates[: chosen_end + 1]]
        by_size = sorted(candidates, key=lambda c: c.size, reverse=True)
        chosen = None
        fallback = None
        for cand in by_size:
            if cand.children is None:
                cand.children = [
                    _reference_candidate(index_x, ref) for ref in index_x.child_refs(cand.ref)
                ]
            if not cand.children:
                continue
            if fallback is None:
                fallback = cand
            densities = [c.density for c in cand.children]
            spread = max(densities) - min(densities)
            if spread > variation_threshold * max(cand.density, 1e-12):
                chosen = cand
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            return [c.ref for c in candidates[: pos + 1]]
        rounds[-1] += 1
        candidates.remove(chosen)
        keys = [c.density for c in candidates]
        for child in chosen.children:
            pos = bisect.bisect(keys, child.density)
            candidates.insert(pos, child)
            keys.insert(pos, child.density)


@pytest.mark.parametrize(
    "make_x",
    [AdaptiveRadixTree, lambda clock: BPlusTree(capacity=16, clock=clock)],
    ids=["art", "btree"],
)
def test_selection_matches_the_rebuild_every_round_reference(make_x):
    runtime = EngineRuntime()
    index = IndeXY(
        make_x(clock=runtime.clock),
        LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024)),
        IndeXYConfig(memory_limit_bytes=64 * 1024, preclean_interval_inserts=512),
        runtime,
    )
    x = index.x
    rng = random.Random(9)
    keys = rng.sample(range(10**8), 9000)
    rounds = []
    stages = 0
    for stage in range(0, len(keys), 1000):
        for k in keys[stage : stage + 1000]:
            index.insert(ikey(k), b"v" * 8)
        for k in keys[stage : stage + 1000 : 3]:  # skewed reads: uneven densities
            index.get(ikey(k))
        if not index.stats["release_cycles"]:
            continue
        stages += 1
        for divisor in (1, 2, 5, 11, 40):
            target = x.memory_bytes // divisor
            want = _reference_select(x, target, rounds)
            cpu_ns = runtime.clock.cpu_ns
            got = select_for_release(x, target)
            assert runtime.clock.cpu_ns == cpu_ns  # selection charges nothing
            assert want
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert a.node is b.node
                assert a.parent is b.parent
                assert len(a.ancestors) == len(b.ancestors)
                assert all(p is q for p, q in zip(a.ancestors, b.ancestors))
                assert a == b  # the slot in the parent too
    assert stages >= 5
    # Selections took many split rounds, so the kept order is exercised.
    assert max(rounds) >= 5

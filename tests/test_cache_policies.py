"""Tests for the pluggable eviction-policy framework (DESIGN.md §9).

Covers the policy family's replacement behaviour, the generic
``PolicyCache``, spec-driven policy selection through the system factory,
the ``set_memory_limit`` resize seam, buffer-pool eviction edge cases
parameterized over every registered policy, and the cache sanitizer.
"""

import pytest

from repro.cache import (
    CachePolicy,
    MgLruPolicy,
    PolicyCache,
    make_policy,
    policy_names,
    register_policy,
)
from repro.check.sanitizer import (
    CacheSanitizer,
    CheckError,
    check_buffer_pool,
    check_no_leaked_pins,
    check_policy_cache,
)
from repro.core.config import CachePolicyConfig
from repro.diskbtree import BufferPool, BufferPoolConfig, LeafPage
from repro.shard import BudgetConfig, RebalanceConfig
from repro.sim import EngineRuntime
from repro.systems.factory import build_system, parse_system_spec, registered_systems

PAGE = 4096


def make_pool(capacity_pages=4, page_size=PAGE, **kwargs):
    runtime = EngineRuntime()
    pool = BufferPool(
        runtime,
        BufferPoolConfig(
            capacity_bytes=capacity_pages * page_size, page_size=page_size, **kwargs
        ),
    )
    return pool, runtime.disk


def leaf_with(n: int) -> LeafPage:
    page = LeafPage()
    page.keys = [b"k%08d" % i for i in range(n)]
    page.values = [b"v" for __ in range(n)]
    return page


def fill(cache: PolicyCache, keys, nbytes=10):
    for key in keys:
        cache.put(key, b"v", nbytes)


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_policy_family_is_registered():
    assert set(policy_names()) == {"lru", "mru", "fifo", "lfu", "clock", "s3fifo", "mglru"}


def test_make_policy_unknown_name_lists_registered():
    with pytest.raises(ValueError, match="registered policies"):
        make_policy("not-a-policy")


def test_register_policy_rejects_duplicates_and_abstract_names():
    class Duplicate(CachePolicy):
        name = "lru"

    with pytest.raises(ValueError, match="already registered"):
        register_policy(Duplicate)

    class Nameless(CachePolicy):
        pass

    with pytest.raises(ValueError, match="concrete"):
        register_policy(Nameless)


def test_on_insert_rejects_double_admission():
    policy = make_policy("lru")
    policy.on_insert("a", 1)
    with pytest.raises(ValueError, match="already tracked"):
        policy.on_insert("a", 1)


# ----------------------------------------------------------------------
# replacement behaviour, policy by policy
# ----------------------------------------------------------------------
def test_lru_evicts_least_recently_used():
    cache = PolicyCache(30, "lru")
    fill(cache, "abc")
    cache.get("a")
    cache.put("d", b"v", 10)
    assert "b" not in cache and "a" in cache


def test_mru_evicts_most_recently_used():
    policy = make_policy("mru")
    for key in "abc":
        policy.on_insert(key, 10)
    policy.on_hit("a")
    assert policy.evict_candidate() == "a"
    # In a cache the incoming key is admitted before the shrink, so under
    # pressure MRU discards the newcomer and keeps the old working set —
    # exactly why it wins on cyclic scans.
    cache = PolicyCache(30, "mru")
    fill(cache, "abc")
    cache.put("d", b"v", 10)
    assert "d" not in cache
    assert all(key in cache for key in "abc")


def test_fifo_ignores_hits():
    cache = PolicyCache(30, "fifo")
    fill(cache, "abc")
    cache.get("a")
    cache.put("d", b"v", 10)
    assert "a" not in cache and "b" in cache


def test_lfu_evicts_coldest_with_insertion_tiebreak():
    cache = PolicyCache(30, "lfu")
    fill(cache, "abc")
    cache.get("a")
    cache.get("a")
    cache.get("b")
    # "c" and the incoming "d" both have zero hits; the older insertion
    # ("c") breaks the tie and is evicted.
    cache.put("d", b"v", 10)
    assert "c" not in cache and "d" in cache and "a" in cache and "b" in cache
    policy = make_policy("lfu")
    for key in "xy":
        policy.on_insert(key, 10)
    policy.on_hit("x")
    policy.on_hit("y")
    assert policy.evict_candidate() == "x"  # equal counts: oldest wins


def test_clock_gives_second_chances():
    policy = make_policy("clock")
    for key in "abc":
        policy.on_insert(key, 10)
    # All reference bits are set: the sweep clears them over one lap and
    # returns the oldest key on the second lap.
    assert policy.evict_candidate() == "a"
    policy.on_hit("a")  # re-reference: "a" survives the next sweep...
    policy.on_remove("b")
    assert policy.evict_candidate() == "c"  # ...and "c" (bit cleared) goes


def test_s3fifo_promotes_touched_keys_and_ghosts_untouched():
    cache = PolicyCache(100, "s3fifo")
    fill(cache, "ab", nbytes=10)
    cache.get("a")
    cache.put("c", b"v", 95)  # forces eviction from the small queue
    policy = cache.policy
    # "a" was touched on probation: promoted to main. "b" was not: evicted
    # and remembered in the ghost queue.
    assert "a" in cache and "b" not in cache
    assert "a" in policy._main and "b" in policy._ghost
    cache.put("b", b"v", 10)  # ghost hit: readmitted straight to main
    assert "b" in policy._main


def test_mglru_hit_refreshes_generation():
    policy = MgLruPolicy(aging_interval=1)  # every admission opens a generation
    cache = PolicyCache(30, policy)
    fill(cache, "abc")
    cache.get("a")  # a moves to the current (youngest) generation
    cache.put("d", b"v", 10)
    assert "b" not in cache and "a" in cache


# ----------------------------------------------------------------------
# PolicyCache mechanics
# ----------------------------------------------------------------------
def test_policy_cache_matches_historical_lru_cache():
    a, b = PolicyCache(64), PolicyCache(64, "lru")
    ops = [("put", k, 16) for k in "abcde"] + [("get", "b", 0), ("put", "f", 16)]
    for cache in (a, b):
        for op, key, nbytes in ops:
            if op == "put":
                cache.put(key, b"v", nbytes)
            else:
                cache.get(key)
    assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)
    assert list(a.policy.keys()) == list(b.policy.keys())


@pytest.mark.parametrize("policy", policy_names())
def test_policy_cache_skips_oversized_values(policy):
    cache = PolicyCache(10, policy)
    cache.put("big", b"v", 11)
    assert "big" not in cache and cache.used_bytes == 0
    # An oversized replacement still drops the value it replaces.
    cache.put("a", b"old", 4)
    cache.put("a", b"new", 11)
    assert cache.get("a") is None and "a" not in cache and cache.used_bytes == 0
    assert check_policy_cache(cache) == []


def test_policy_cache_resize_shrinks_through_policy():
    cache = PolicyCache(40, "lru")
    fill(cache, "abcd")
    cache.get("a")
    cache.resize(20)
    # LRU order under the smaller budget: b and c leave first.
    assert "b" not in cache and "c" not in cache
    assert "d" in cache and "a" in cache
    assert cache.used_bytes <= cache.capacity_bytes == 20
    assert check_policy_cache(cache) == []


def test_policy_cache_clear_resets_policy_state():
    cache = PolicyCache(40, "s3fifo")
    fill(cache, "abcd")
    cache.clear()
    assert len(cache) == 0 and cache.used_bytes == 0
    assert len(cache.policy) == 0 and cache.policy.used_bytes == 0


# ----------------------------------------------------------------------
# spec-driven selection through the factory
# ----------------------------------------------------------------------
def test_parse_system_spec():
    assert parse_system_spec("ART-LSM") == ("ART-LSM", {})
    assert parse_system_spec("Sharded") == ("Sharded", {})
    assert parse_system_spec("ART-LSM@block=s3fifo,row=lfu") == (
        "ART-LSM",
        {"cache_policies": CachePolicyConfig(block="s3fifo", row="lfu")},
    )
    # Router knobs reach the router as typed configs, next to (not
    # inside) the cache-policy part of the same spec.
    assert parse_system_spec("Sharded@rebalance=on") == (
        "Sharded",
        {"rebalance": RebalanceConfig()},
    )
    assert parse_system_spec("Sharded@budget=on,rebalance=on") == (
        "Sharded",
        {"rebalance": RebalanceConfig(), "budget": BudgetConfig()},
    )
    assert parse_system_spec("Sharded@block=s3fifo,rebalance=threshold:1.3") == (
        "Sharded",
        {
            "rebalance": RebalanceConfig(threshold=1.3),
            "cache_policies": CachePolicyConfig(block="s3fifo"),
        },
    )
    assert parse_system_spec("Sharded@block=s3fifo,budget=interval:128") == (
        "Sharded",
        {
            "budget": BudgetConfig(interval_ops=128),
            "cache_policies": CachePolicyConfig(block="s3fifo"),
        },
    )
    assert parse_system_spec("Sharded@budget=off") == ("Sharded", {"budget": None})


@pytest.mark.parametrize(
    "spec,names",
    [
        # a router knob on a system without a router
        ("ART-LSM@rebalance=on", ["has no router", "rebalance"]),
        ("ART-LSM@budget=on", ["has no router", "budget"]),
        # duplicate names, at either nesting level
        ("Sharded@rebalance=on,rebalance=off", ["'rebalance' named twice"]),
        (
            "Sharded@rebalance=threshold:2.5+threshold:3.0",
            ["'threshold' named twice", "threshold:2.5+threshold:3.0"],
        ),
        ("ART-LSM@block=lru,block=lfu", ["'block' named twice"]),
        # a value the knob's type cannot parse
        ("Sharded@rebalance=max_shards:abc", ["'max_shards:abc'", "int"]),
        ("Sharded@budget=floor:high", ["'floor:high'", "float"]),
        # unknown names
        ("Sharded@rebalance=warmth:9", ["'warmth:9'", "threshold"]),
        ("Sharded@budget=warmth:9", ["'warmth:9'", "hysteresis"]),
        # a part that is not name=value / name:value at all
        ("ART-LSM@nonsense", ["'nonsense'", "name=value"]),
        ("Sharded@rebalance=threshold", ["'threshold'", "name:value"]),
    ],
)
def test_parse_system_spec_names_the_offending_part(spec, names):
    with pytest.raises(ValueError) as caught:
        parse_system_spec(spec)
    for name in names:
        assert name in str(caught.value)


def test_cache_policy_config_rejects_bad_specs():
    with pytest.raises(ValueError, match="layer"):
        CachePolicyConfig.from_spec("disk=lru")
    with pytest.raises(ValueError, match="registered policies"):
        CachePolicyConfig.from_spec("block=optimal")
    with pytest.raises(ValueError, match="twice"):
        CachePolicyConfig.from_spec("block=lru,block=lfu")


def test_spec_rejects_layer_absent_from_the_system():
    # A pool knob on ART-LSM would be silently ignored at build time;
    # the grammar rejects it and names the layers ART-LSM caches on.
    with pytest.raises(ValueError, match=r"'pool' does not exist on system 'ART-LSM'"):
        parse_system_spec("ART-LSM@pool=mglru")
    with pytest.raises(ValueError, match=r"valid layers: block, row"):
        parse_system_spec("RocksDB@pool=clock")
    with pytest.raises(ValueError, match=r"valid layers: pool"):
        parse_system_spec("B+-B+@block=s3fifo")
    # ART-Multi runs page pools *and* an LSM, so every layer is live.
    name, kwargs = parse_system_spec("ART-Multi@pool=mglru,block=s3fifo,row=lfu")
    assert name == "ART-Multi"
    assert kwargs == {
        "cache_policies": CachePolicyConfig(pool="mglru", block="s3fifo", row="lfu")
    }


def test_spec_validates_system_name_before_layers():
    with pytest.raises(ValueError, match="registered systems"):
        parse_system_spec("FancyDB@block=lru")
    # A malformed layer list on an unknown system still reports the
    # unknown system first: the layer grammar is per-system.
    with pytest.raises(ValueError, match="unknown system 'FancyDB'"):
        parse_system_spec("FancyDB@nonsense")


def test_spec_unknown_layer_error_lists_system_layers():
    with pytest.raises(ValueError, match=r"layer one of block, row"):
        parse_system_spec("ART-LSM@disk=lru")


def test_build_system_with_policy_spec():
    system = build_system("B+-B+@pool=mglru", memory_limit_bytes=64 * 1024)
    assert system.tree.pool.policy_name == "mglru"
    system = build_system("RocksDB@block=fifo,row=mru", memory_limit_bytes=64 * 1024)
    assert system.store.block_cache.policy_name == "fifo"
    assert system.store.row_cache.policy_name == "mru"


def test_build_system_defaults_reproduce_historical_policies():
    assert build_system("B+-B+", memory_limit_bytes=64 * 1024).tree.pool.policy_name == "clock"
    rocks = build_system("RocksDB", memory_limit_bytes=64 * 1024)
    assert rocks.store.block_cache.policy_name == "lru"
    assert rocks.store.row_cache.policy_name == "lru"


def test_build_system_rejects_spec_plus_explicit_policies():
    with pytest.raises(ValueError, match="cache_policies"):
        build_system(
            "B+-B+@pool=lru",
            memory_limit_bytes=64 * 1024,
            cache_policies=CachePolicyConfig(),
        )


def test_sharded_system_forwards_policy_spec_to_shards():
    router = build_system(
        "Sharded",
        memory_limit_bytes=256 * 1024,
        base_system="RocksDB@block=s3fifo",
        shards=2,
    )
    for shard in router.shards:
        assert shard.store.block_cache.policy_name == "s3fifo"


# ----------------------------------------------------------------------
# set_memory_limit: the one resize seam
# ----------------------------------------------------------------------
SINGLE_ENGINE = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB", "ART-Multi")

#: every buffer a memory limit sizes, reached through each system's own
#: attributes rather than through the ``parts`` mapping under test.
BUFFERS = {
    "ART-LSM": lambda s: [s.index.y],
    "ART-B+": lambda s: [s.y_tree.pool],
    "B+-B+": lambda s: [s.tree.pool],
    "RocksDB": lambda s: [s.store],
    "ART-Multi": lambda s: [s.store, s.y_tree.pool],
}


def _budget_state(index, buffers):
    """Everything a memory limit decides: X watermarks and buffer sizes."""
    from repro.lsm.store import LSMStore

    state = [None if index is None else (index.config, index.budget.config)]
    for buf in buffers:
        if isinstance(buf, LSMStore):
            c = buf.config
            row = buf.row_cache
            state.append(
                (
                    c.memtable_bytes, c.block_cache_bytes, c.row_cache_bytes,
                    buf.block_cache.capacity_bytes, row is not None and row.capacity_bytes,
                )
            )  # fmt: skip
        else:
            state.append((buf.config, buf.capacity_frames, buf._decoded_cap))
    return state


#: limits below every floor of every split, and above every floor
#: (TPC-C's orderline budget is the limit minus its resident tables).
LIMIT_PAIRS = [(96 * 1024, 8 << 20), (8 << 20, 96 * 1024)]


@pytest.mark.parametrize("built,resized", LIMIT_PAIRS)
@pytest.mark.parametrize("system", SINGLE_ENGINE)
def test_set_memory_limit_matches_fresh_construction(system, built, resized):
    def state(engine):
        return _budget_state(engine.index, BUFFERS[system](engine))

    engine = build_system(system, memory_limit_bytes=built)
    engine.put_many(range(0, 40_000, 7), b"x" * 32)
    engine.get_many(range(0, 40_000, 70))
    engine.set_memory_limit(resized)
    assert state(engine) == state(build_system(system, memory_limit_bytes=resized))


@pytest.mark.parametrize("built,resized", LIMIT_PAIRS)
@pytest.mark.parametrize("backend", ("ART-LSM", "ART-B+", "B+-B+", "RocksDB"))
def test_tpcc_set_memory_limit_matches_fresh_construction(backend, built, resized):
    from repro.core.indexy import IndeXY
    from repro.tpcc.engine import TpccConfig, TpccEngine

    def engine_at(limit):
        config = TpccConfig(
            warehouses=1, items=100, memory_limit_bytes=limit, orderline_backend=backend
        )
        return TpccEngine(config)

    def state(engine):
        index = engine.orderline if isinstance(engine.orderline, IndeXY) else None
        y = engine.orderline if index is None else index.y
        y = getattr(y, "tree", y)  # ART-B+'s Index Y wraps the disk tree
        return _budget_state(index, [getattr(y, "pool", y)])

    engine = engine_at(built)
    engine.set_memory_limit(resized)
    assert state(engine) == state(engine_at(resized))


@pytest.mark.parametrize("system", SINGLE_ENGINE)
def test_cache_hit_stats_sums_x_and_every_buffer_ledger(system):
    from repro.lsm.store import LSMStore

    engine = build_system(system, memory_limit_bytes=128 * 1024)
    keys = range(0, 6_000 * 11, 11)
    engine.put_many(keys, b"v" * 64)
    engine.flush()
    engine.get_many(range(0, 1_500 * 11, 11))
    hits, misses = float(engine.stats["x_hits"]), 0.0
    for buf in BUFFERS[system](engine):
        if isinstance(buf, LSMStore):
            for cache in (buf.block_cache, buf.row_cache):
                if cache is not None:
                    hits += cache.hits
                    misses += cache.misses
        else:
            hits += buf.stats["pool_hits"]
            misses += buf.stats["pool_misses"]
    assert engine.cache_hit_stats() == (hits, misses)
    assert hits > 0 and misses > 0


@pytest.mark.parametrize("limit", (-5, 0))
@pytest.mark.parametrize("system", (*registered_systems(), "TPC-C"))
def test_set_memory_limit_rejects_a_limit_below_one_byte(system, limit):
    if system == "TPC-C":
        from repro.tpcc.engine import TpccConfig, TpccEngine

        engine = TpccEngine(TpccConfig(warehouses=1, items=100))
    else:
        engine = build_system(system, memory_limit_bytes=256 * 1024)
    with pytest.raises(ValueError, match=f"memory_limit_bytes must be at least 1, got {limit}$"):
        engine.set_memory_limit(limit)


def test_rocksdb_shrink_keeps_caches_within_budget_and_warm():
    system = build_system("RocksDB", memory_limit_bytes=512 * 1024)
    for k in range(500):
        system.insert(k, b"x" * 64)
    for k in range(500):
        system.read(k)
    resident_before = len(system.store.block_cache)
    system.set_memory_limit(96 * 1024)
    block_cache = system.store.block_cache
    assert block_cache.used_bytes <= block_cache.capacity_bytes
    # The resize evicted, it did not rebuild: surviving entries stay warm.
    assert 0 < len(block_cache) <= resident_before
    assert system.read(0) is not None


def test_bplus_set_memory_limit_resizes_pool():
    system = build_system("B+-B+", memory_limit_bytes=64 * 1024)
    for k in range(400):
        system.insert(k, b"x" * 64)
    assert system.tree.pool.frame_count > 4
    system.set_memory_limit(4 * PAGE)
    pool = system.tree.pool
    assert pool.capacity_frames == 4
    assert pool.frame_count <= 4
    assert check_buffer_pool(pool) == []
    # Evicted pages fault back in correctly after the shrink.
    assert system.read(0) == b"x" * 64
    system.set_memory_limit(64 * 1024)
    assert system.tree.pool.capacity_frames == 16


# ----------------------------------------------------------------------
# buffer-pool edge cases, every registered policy
# ----------------------------------------------------------------------
@pytest.mark.parametrize("policy", policy_names())
def test_all_frames_pinned_eviction_fails_cleanly(policy):
    pool, __ = make_pool(capacity_pages=2, policy=policy)
    pids = [pool.new_page(leaf_with(1)) for __ in range(2)]
    for pid in pids:
        pool.pin(pid)
    extra = pool.new_page(leaf_with(1))  # nothing evictable: overcommits
    assert pool.frame_count == 3
    assert all(pool.is_resident(pid) for pid in pids)
    for pid in pids:
        pool.unpin(pid)
    pool.new_page(leaf_with(1))  # next admission reclaims the overcommit
    assert pool.frame_count <= 2
    assert pool.is_resident(extra) or True  # extra may or may not survive
    assert check_buffer_pool(pool) == []
    assert check_no_leaked_pins(pool) == []


@pytest.mark.parametrize("policy", policy_names())
def test_pool_resize_below_resident_evicts_down(policy):
    pool, disk = make_pool(capacity_pages=6, policy=policy)
    pids = [pool.new_page(leaf_with(i + 1)) for i in range(6)]
    writes_before = disk.stats["writes"]
    pool.resize(2 * PAGE)
    assert pool.capacity_frames == 2
    assert pool.frame_count <= 2
    assert disk.stats["writes"] > writes_before  # dirty victims wrote back
    assert check_buffer_pool(pool) == []
    # All pages still readable (evicted ones fault back from disk).
    for i, pid in enumerate(pids):
        assert pool.get_page(pid).entry_count == i + 1


@pytest.mark.parametrize("policy", policy_names())
def test_pool_resize_with_pins_overcommits_instead_of_evicting(policy):
    pool, __ = make_pool(capacity_pages=4, policy=policy)
    pids = [pool.new_page(leaf_with(1)) for __ in range(4)]
    for pid in pids:
        pool.pin(pid)
    pool.resize(2 * PAGE)
    assert pool.frame_count == 4  # pinned frames never leave
    for pid in pids:
        pool.unpin(pid)
    pool.resize(2 * PAGE)
    assert pool.frame_count <= 2
    with pytest.raises(ValueError):
        pool.resize(PAGE)  # below the two-page minimum


@pytest.mark.parametrize("policy", policy_names())
def test_evict_then_repin_same_page_id(policy):
    pool, __ = make_pool(capacity_pages=2, policy=policy)
    pids = [pool.new_page(leaf_with(i + 1)) for i in range(3)]
    evicted = [pid for pid in pids if not pool.is_resident(pid)]
    assert evicted  # capacity 2, three admissions: someone left
    victim = evicted[0]
    assert pool.get_page(victim).entry_count == pids.index(victim) + 1
    pool.pin(victim)
    for __ in range(4):  # heavy pressure: the pinned frame must survive
        pool.new_page(leaf_with(1))
    assert pool.is_resident(victim)
    assert check_buffer_pool(pool) == []
    pool.unpin(victim)
    assert check_no_leaked_pins(pool) == []


# ----------------------------------------------------------------------
# cache sanitizer
# ----------------------------------------------------------------------
def test_check_policy_cache_detects_metadata_drift():
    cache = PolicyCache(40, "lru")
    fill(cache, "abc")
    assert check_policy_cache(cache) == []
    del cache.policy._order["b"]
    assert any(v.check == "cache-policy" for v in check_policy_cache(cache))


def test_check_policy_cache_detects_byte_drift_and_overbudget():
    cache = PolicyCache(40, "lru")
    fill(cache, "abc")
    cache.used_bytes += 5
    assert any(v.check == "cache-bytes" for v in check_policy_cache(cache))
    cache = PolicyCache(40, "lru")
    fill(cache, "abc")
    cache.capacity_bytes = 20  # bypasses resize(): budget now violated
    assert any(v.check == "cache-budget" for v in check_policy_cache(cache))


def test_cache_sanitizer_raises_on_interval():
    cache = PolicyCache(40, "lru")
    fill(cache, "abc")
    sanitizer = CacheSanitizer({"block": cache}, interval=2)
    sanitizer.after_op()  # op 1: no sweep yet
    cache.policy.used_bytes += 1
    with pytest.raises(CheckError):
        sanitizer.after_op()  # op 2: sweep fires and sees the drift
    assert sanitizer.checks_run == 1

"""Tests for the multi-Index-Y routing extension (Section III-G)."""

import random

import pytest

from repro.art import encode_int
from repro.core.multi_y import KeyRegionRouter, RoutedIndexY
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime
from repro.systems import build_system


def ikey(i: int) -> bytes:
    return encode_int(i)


def make_router(**overrides):
    defaults = dict(default="lsm", scan_backend="btree", region_prefix_bytes=6, min_ops=10)
    defaults.update(overrides)
    return KeyRegionRouter(**defaults)


def make_routed():
    runtime = EngineRuntime()
    lsm_a = LSMStore(runtime, LSMConfig(memtable_bytes=8 * 1024))
    lsm_b = LSMStore(runtime, LSMConfig(memtable_bytes=8 * 1024))
    router = make_router()
    return RoutedIndexY({"lsm": lsm_a, "btree": lsm_b}, router, runtime), router


# ----------------------------------------------------------------------
# router
# ----------------------------------------------------------------------
def test_router_rejects_same_backends():
    with pytest.raises(ValueError):
        KeyRegionRouter(default="x", scan_backend="x")


def test_router_defaults_to_write_backend():
    router = make_router()
    assert router.home_of(ikey(42)) == "lsm"


def test_scan_heavy_region_rehomes():
    router = make_router(min_ops=10, scan_threshold=0.3)
    key = ikey(1 << 20)
    for __ in range(5):
        router.note_write(key)
    for __ in range(10):
        router.note_scan(key)
    assert router.home_of(key) == "btree"
    assert router.assignments()


def test_write_heavy_region_stays_default():
    router = make_router(min_ops=10, scan_threshold=0.3)
    key = ikey(1 << 20)
    for __ in range(20):
        router.note_write(key)
    router.note_scan(key)
    assert router.home_of(key) == "lsm"


def test_region_can_rehome_back():
    router = make_router(min_ops=5, scan_threshold=0.5)
    key = ikey(7 << 24)
    for __ in range(10):
        router.note_scan(key)
    assert router.home_of(key) == "btree"
    for __ in range(50):
        router.note_write(key)
    router.note_scan(key)  # rebalance happens on scan observation
    assert router.home_of(key) == "lsm"


def test_regions_are_prefix_based():
    router = make_router(region_prefix_bytes=6)
    a, b = ikey(0x1000), ikey(0x10FF)
    assert router.region_of(a) == router.region_of(b)
    assert router.region_of(a) != router.region_of(ikey(1 << 30))


# ----------------------------------------------------------------------
# routed store
# ----------------------------------------------------------------------
def test_routed_validates_backend_names():
    runtime = EngineRuntime()
    store = LSMStore(runtime, LSMConfig())
    with pytest.raises(ValueError):
        RoutedIndexY({"only": store}, make_router(), runtime)


def test_put_get_roundtrip():
    routed, __ = make_routed()
    routed.put_batch([(ikey(i), b"v%d" % i) for i in range(100)])
    for i in range(0, 100, 7):
        assert routed.get(ikey(i)) == b"v%d" % i
    assert routed.get(ikey(999)) is None


def test_get_falls_back_after_rehoming():
    routed, router = make_routed()
    key = ikey(5 << 30)
    routed.put_batch([(key, b"old-home")])
    # Force the region to re-home to the other backend.
    for __ in range(20):
        router.note_scan(key)
    assert router.home_of(key) == "btree"
    # The data still lives in the old home; get must find it.
    assert routed.get(key) == b"old-home"
    assert routed.stats["fallback_hits"] >= 1


def test_newer_write_in_new_home_shadows_old_copy():
    routed, router = make_routed()
    key = ikey(5 << 30)
    routed.put_batch([(key, b"v1")])
    for __ in range(20):
        router.note_scan(key)
    routed.put_batch([(key, b"v2")])  # lands in the new home
    assert routed.get(key) == b"v2"


def test_scan_merges_backends_in_order():
    routed, router = make_routed()
    evens = [(ikey(i), b"e") for i in range(0, 100, 2)]
    routed.put_batch(evens)
    # Re-home everything, then write odds into the new home.
    for __ in range(20):
        router.note_scan(ikey(0))
    odds = [(ikey(i), b"o") for i in range(1, 100, 2)]
    routed.put_batch(odds)
    got = routed.scan(ikey(0), 10)
    assert [k for k, __v in got] == [ikey(i) for i in range(10)]


def test_scan_duplicate_resolution_prefers_home():
    routed, router = make_routed()
    key = ikey(3 << 30)
    routed.put_batch([(key, b"stale")])
    for __ in range(20):
        router.note_scan(key)
    routed.put_batch([(key, b"fresh")])
    got = dict(routed.scan(key, 1))
    assert got[key] == b"fresh"


def test_delete_removes_all_copies():
    routed, router = make_routed()
    key = ikey(9 << 30)
    routed.put_batch([(key, b"v1")])
    for __ in range(20):
        router.note_scan(key)
    routed.put_batch([(key, b"v2")])
    routed.delete(key)
    assert routed.get(key) is None


# ----------------------------------------------------------------------
# full system
# ----------------------------------------------------------------------
def test_art_multi_system_end_to_end():
    system = build_system("ART-Multi", memory_limit_bytes=128 * 1024)
    rng = random.Random(3)
    keys = rng.sample(range(1 << 40), 6000)
    for k in keys:
        system.insert(k, b"v" * 8)
    for k in keys[::101]:
        assert system.read(k) == b"v" * 8
    got = system.scan(min(keys), 5)
    assert len(got) == 5


def test_art_multi_routes_scan_regions_to_btree():
    # Low threshold: the scan region also absorbs its own loading writes,
    # so its scan *fraction* stays small even when scans dominate reads.
    system = build_system(
        "ART-Multi", memory_limit_bytes=96 * 1024, region_prefix_bytes=5,
        scan_threshold=0.02,
    )
    rng = random.Random(7)
    # Write-heavy traffic across the space, scan-heavy traffic in one region.
    write_keys = rng.sample(range(1 << 40), 5000)
    for k in write_keys:
        system.insert(k, b"v" * 8)
    scan_base = 1 << 39
    for i in range(2000):
        system.insert(scan_base + i, b"s" * 8)
    system.flush()
    for __ in range(100):
        system.scan(scan_base + rng.randrange(1000), 20)
    homes = system.routed.router.assignments()
    assert any(home == "btree" for home in homes.values())

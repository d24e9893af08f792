"""Integration tests across the four Table-I systems."""

import random

import pytest

from repro.systems import SYSTEM_NAMES, Snapshot, build_system
from repro.systems.factory import registered_systems

LIMIT = 192 * 1024


@pytest.fixture(params=SYSTEM_NAMES)
def system(request):
    return build_system(request.param, memory_limit_bytes=LIMIT)


def test_factory_rejects_unknown_name():
    with pytest.raises(ValueError):
        build_system("FancyDB", memory_limit_bytes=LIMIT)


@pytest.mark.parametrize("limit", [0, -4096])
@pytest.mark.parametrize("name", registered_systems())
def test_factory_rejects_a_memory_limit_below_one_byte(name, limit):
    with pytest.raises(ValueError, match=f"memory_limit_bytes .* got {limit}"):
        build_system(name, memory_limit_bytes=limit)


def test_insert_read_roundtrip(system):
    system.insert(42, b"answer")
    assert system.read(42) == b"answer"
    assert system.read(43) is None


def test_update_changes_value(system):
    system.insert(1, b"old")
    system.update(1, b"new")
    assert system.read(1) == b"new"


def test_read_modify_write(system):
    system.insert(1, b"v0")
    system.read_modify_write(1, b"v1")
    assert system.read(1) == b"v1"


def test_scan_returns_sorted_range(system):
    for k in range(0, 500, 5):
        system.insert(k, str(k).encode())
    got = system.scan(100, 10)
    keys = [int.from_bytes(k, "big") for k, __ in got]
    assert keys == list(range(100, 150, 5))


def test_bulk_random_workload_is_consistent(system):
    rng = random.Random(9)
    keys = rng.sample(range(10**7), 4000)
    for k in keys:
        system.insert(k, b"payload-16-byte!")
    misses = [k for k in keys[::37] if system.read(k) != b"payload-16-byte!"]
    assert misses == []


def test_ops_charge_simulated_time(system):
    for k in range(500):
        system.insert(k, b"v")
    snap = system.snapshot()
    assert snap.cpu_ns > 0
    assert snap.ops == 500


def test_snapshot_deltas(system):
    for k in range(100):
        system.insert(k, b"v")
    first = system.snapshot()
    for k in range(100, 200):
        system.insert(k, b"v")
    delta = first.delta(system.snapshot())
    assert delta.ops == 100
    assert delta.cpu_ns > 0


def test_delete_many_reports_presence_in_order(system):
    keys = list(range(0, 400, 4))
    for k in keys:
        system.insert(k, b"v")
    flags = system.delete_many(keys[:50] + [99999])
    assert flags == [True] * 50 + [False]
    assert all(system.read(k) is None for k in keys[:50])
    assert system.read(keys[50]) == b"v"


@pytest.mark.parametrize("name", SYSTEM_NAMES)
def test_delete_many_charges_match_single_deletes(name):
    # The batched path exists for wall-clock reasons only: simulated
    # charges must be identical to the per-key delete() sequence.
    def load(sys_):
        for k in range(300):
            sys_.insert(k, b"v")

    batched = build_system(name, memory_limit_bytes=LIMIT)
    single = build_system(name, memory_limit_bytes=LIMIT)
    load(batched)
    load(single)
    batch_flags = batched.delete_many(range(0, 300, 3))
    single_flags = [single.delete(k) for k in range(0, 300, 3)]
    assert batch_flags == single_flags
    assert batched.snapshot() == single.snapshot()


def test_throughput_computation():
    snap = Snapshot(
        cpu_ns=1e9, background_ns=0, disk_busy_ns=0, ops=1000, disk_read_bytes=0, disk_write_bytes=0
    )
    from repro.sim import ThreadModel

    assert snap.throughput_ops(1, ThreadModel()) == pytest.approx(1000.0)


def test_memory_stays_within_budget_after_spill(system):
    rng = random.Random(21)
    for k in rng.sample(range(10**7), 9000):
        system.insert(k, b"v" * 16)
    # Generous envelope: framework systems keep X below the limit; the
    # coupled system's pool is the limit; RocksDB's buffers are tiny.
    # Y transfer buffers have page-granularity floors that overshoot at
    # test scale, hence the slack.
    assert system.memory_bytes <= 1.8 * LIMIT


def test_flush_then_read_back(system):
    for k in range(300):
        system.insert(k, b"v" * 8)
    system.flush()
    assert system.read(7) == b"v" * 8


# ----------------------------------------------------------------------
# relative performance shapes (the paper's qualitative claims)
# ----------------------------------------------------------------------
def run_inserts(name, n, seed=33, limit=LIMIT):
    system = build_system(name, memory_limit_bytes=limit)
    rng = random.Random(seed)
    for k in rng.sample(range(10**8), n):
        system.insert(k, b"v" * 8)
    return system


def test_art_systems_beat_coupled_btree_in_memory():
    """Pre-limit, ART-X systems are ~2-3x faster (Figure 3 discussion)."""
    from repro.sim import ThreadModel

    model = ThreadModel()
    small = 2000  # fits comfortably in memory
    art = run_inserts("ART-LSM", small)
    coupled = run_inserts("B+-B+", small)
    art_tp = art.snapshot().throughput_ops(1, model)
    coupled_tp = coupled.snapshot().throughput_ops(1, model)
    assert art_tp > 1.5 * coupled_tp


def test_lsm_y_beats_btree_y_after_limit_random_inserts():
    """Post-limit random inserts: LSM Index Y wins big (Figure 3a)."""
    from repro.sim import ThreadModel

    model = ThreadModel()
    n = 16_000  # far beyond the limit
    art_lsm = run_inserts("ART-LSM", n, limit=96 * 1024)
    bb = run_inserts("B+-B+", n, limit=96 * 1024)
    lsm_tp = art_lsm.snapshot().throughput_ops(1, model)
    bb_tp = bb.snapshot().throughput_ops(1, model)
    assert lsm_tp > 3 * bb_tp


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("name", registered_systems())
def test_scan_for_no_entries_returns_none_and_reads_nothing(name, count):
    system = build_system(name, memory_limit_bytes=LIMIT)
    system.put_many(range(0, 40_000, 5), b"payload-16-byte!")  # spills: Y has data to open
    system.flush()
    engines = getattr(system, "shards", [system])
    assert all(engine.disk.stats["writes"] for engine in engines)
    reads = [engine.disk.stats["reads"] for engine in engines]
    assert system.scan(100, count) == []
    assert [engine.disk.stats["reads"] for engine in engines] == reads

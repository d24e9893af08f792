"""Tests for the elastic resharding layer (``repro.shard.heat`` /
``repro.shard.fleet`` / the weighted range partitioner).

Covers the heat ledger's accounting and time-weighted split quantiles,
the rebalance config grammar, boundary-table auditing on the weighted
partitioner, the diffusion planner's trigger/persistence/cooldown
behaviour, the live-migration drain (double-read seam, insert-if-absent,
completion bookkeeping), the sanitizer's migration invariants, and
byte-determinism of a rebalancing run.
"""

from __future__ import annotations

import pytest

from repro.check.sanitizer import check_shard_router
from repro.shard import (
    RangeTransfer,
    RebalanceConfig,
    ShardHeat,
    ShardRouter,
    WeightedRangePartitioner,
    make_partitioner,
)

LIMIT = 256 * 1024
VALUE = b"rebalance-value!"
SPACE = 1 << 16


def make_router(shards: int = 4, rebalance="on", **kw) -> ShardRouter:
    return ShardRouter(
        base_system="ART-LSM",
        shards=shards,
        memory_limit_bytes=LIMIT,
        partitioner="weighted",
        key_space=SPACE,
        rebalance=rebalance,
        **kw,
    )


def heat_shard(router: ShardRouter, sid: int, weight: float, samples: int = 32) -> None:
    """Inject ``weight`` ns of busy time on ``sid``, spread over its range."""
    lo, hi = router.partitioner.shard_range(sid)
    step = max(1, (hi - lo) // (samples + 1))
    per = weight / samples
    for i in range(samples):
        router.heat.note(sid, lo + 1 + i * step, service_ns=per)


# ----------------------------------------------------------------------
# ShardHeat
# ----------------------------------------------------------------------


def test_heat_validates_parameters():
    with pytest.raises(ValueError):
        ShardHeat(0)
    with pytest.raises(ValueError):
        ShardHeat(2, decay=1.0)
    with pytest.raises(ValueError):
        ShardHeat(2, decay=-0.1)
    with pytest.raises(ValueError):
        ShardHeat(2, sample_size=0)


def test_heat_note_accumulates_and_decays():
    heat = ShardHeat(2, decay=0.5)
    heat.note(0, key=10, service_ns=100.0, queue_ns=40.0)
    heat.note(0, key=11)
    heat.note(1, key=20, service_ns=60.0)
    assert heat.ops == [2.0, 1.0]
    assert heat.total_ops == [2, 1]
    assert heat.service_ns == [100.0, 60.0]
    assert heat.queue_ns == [40.0, 0.0]
    heat.decay_all()
    assert heat.ops == [1.0, 0.5]
    assert heat.service_ns == [50.0, 30.0]
    assert heat.total_ops == [2, 1]  # lifetime totals never decay


def test_heat_note_batch_moves_only_op_counters():
    heat = ShardHeat(3)
    heat.note_batch([5, 0, 2])
    assert heat.ops == [5.0, 0.0, 2.0]
    assert heat.total_ops == [5, 0, 2]
    assert heat.service_ns == [0.0, 0.0, 0.0]
    assert heat.split_key(0) is None  # batches carry no key samples


def test_heat_load_prefers_busy_time():
    heat = ShardHeat(2)
    heat.note(0, key=1)
    heat.note(1, key=2)
    assert heat.load() == [1.0, 1.0]  # no service info: op counts
    heat.note(1, key=3, service_ns=500.0)
    assert heat.load() == [0.0, 500.0]  # busy time once reported


def test_heat_sample_ring_wraps():
    heat = ShardHeat(1, sample_size=4)
    for key in range(10):
        heat.note(0, key)
    ring = heat._samples[0]
    assert len(ring) == 4
    assert sorted(key for key, __ in ring) == [6, 7, 8, 9]


def test_heat_split_key_is_time_weighted():
    heat = ShardHeat(1, sample_size=16)
    # Nine cheap ops on low keys, one op on key 100 carrying 10x their
    # combined time: the half-load split must land at the heavy key.
    for key in range(1, 10):
        heat.note(0, key, service_ns=1.0)
    heat.note(0, 100, service_ns=90.0)
    assert heat.split_key(0, fraction=0.5) == 100
    # By op count alone the median would sit in the cheap cluster.
    assert heat.split_key(0, fraction=0.05) < 10


def test_heat_split_key_fraction_extremes():
    heat = ShardHeat(1)
    for key in (5, 10, 15):
        heat.note(0, key, service_ns=10.0)
    assert heat.split_key(0, fraction=0.0) == 5
    assert heat.split_key(0, fraction=1.0) == 15


def test_heat_reset_clears_decayed_state_keeps_totals():
    heat = ShardHeat(2)
    heat.note(0, 7, service_ns=50.0, queue_ns=5.0)
    heat.reset()
    assert heat.ops == [0.0, 0.0]
    assert heat.service_ns == [0.0, 0.0]
    assert heat.queue_ns == [0.0, 0.0]
    assert heat.split_key(0) is None
    assert heat.total_ops == [1, 0]


# ----------------------------------------------------------------------
# RebalanceConfig grammar
# ----------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        RebalanceConfig(threshold=1.0)
    with pytest.raises(ValueError):
        RebalanceConfig(interval_ops=0)
    with pytest.raises(ValueError):
        RebalanceConfig(chunk_keys=0)
    with pytest.raises(ValueError):
        RebalanceConfig(drain_interval_ops=0)
    with pytest.raises(ValueError):
        RebalanceConfig(cooldown_rounds=-1)


def test_config_from_spec_and_coerce():
    assert RebalanceConfig.from_spec("on") == RebalanceConfig()
    custom = RebalanceConfig.from_spec("threshold:1.3+interval:128+cooldown:3")
    assert custom.threshold == 1.3
    assert custom.interval_ops == 128
    assert custom.cooldown_rounds == 3
    with pytest.raises(ValueError, match="'warmth:9'"):
        RebalanceConfig.from_spec("warmth:9")
    with pytest.raises(ValueError, match="'max_shards:abc'"):
        RebalanceConfig.from_spec("max_shards:abc")
    with pytest.raises(ValueError, match="'threshold' named twice"):
        RebalanceConfig.from_spec("threshold:2.5+threshold:3.0")
    assert RebalanceConfig.coerce(None) is None
    assert RebalanceConfig.coerce(False) is None
    assert RebalanceConfig.coerce("off") is None
    assert RebalanceConfig.coerce(True) == RebalanceConfig()
    assert RebalanceConfig.coerce(custom) is custom


def test_router_requires_weighted_partitioner_for_rebalance():
    with pytest.raises(ValueError, match="weighted"):
        ShardRouter(shards=2, rebalance="on", partitioner="hash")


# ----------------------------------------------------------------------
# weighted range partitioner (boundary audit)
# ----------------------------------------------------------------------


def test_weighted_default_boundaries_match_range_partitioner():
    for shards, key_space in ((4, 1000), (3, 1000), (7, 100)):
        weighted = WeightedRangePartitioner(shards=shards, key_space=key_space)
        for key in range(-3, key_space + 5):
            # Equal stripes ``key * shards // key_space``; keys outside
            # the space clamp to the edge shards.
            want = min(max(key, 0) * shards // key_space, shards - 1)
            assert weighted.shard_of(key) == want


def test_weighted_boundary_validation():
    with pytest.raises(ValueError, match="boundaries"):
        WeightedRangePartitioner(2, 100, boundaries=[0, 100])  # too few
    with pytest.raises(ValueError, match="span"):
        WeightedRangePartitioner(2, 100, boundaries=[1, 50, 100])
    with pytest.raises(ValueError, match="strictly increasing"):
        WeightedRangePartitioner(2, 100, boundaries=[0, 0, 100])


def test_move_boundary_swaps_table_and_guards_neighbours():
    part = WeightedRangePartitioner(shards=3, key_space=300)
    part.move_boundary(1, 42)
    assert part.boundaries == (0, 42, 200, 300)
    assert part.shard_of(41) == 0 and part.shard_of(42) == 1
    assert part.shard_range(1) == (42, 200)
    with pytest.raises(ValueError, match="interior"):
        part.move_boundary(0, 10)
    with pytest.raises(ValueError, match="interior"):
        part.move_boundary(3, 250)
    with pytest.raises(ValueError):
        part.move_boundary(2, 42)  # would empty shard 1


def test_make_partitioner_rejects_nonpositive_shards():
    for bad in (0, -1):
        with pytest.raises(ValueError, match="shards"):
            make_partitioner("hash", bad, 1 << 20)


# ----------------------------------------------------------------------
# planner: trigger, persistence, diffusion, cooldown
# ----------------------------------------------------------------------


def test_migration_needs_persistent_imbalance():
    router = make_router()
    before = router.partitioner.boundaries
    heat_shard(router, 0, 10_000.0)
    for sid in (1, 2, 3):
        heat_shard(router, sid, 100.0)
    router.fleet.plan_tick()  # first sighting: pending only
    assert router.transfer is None
    assert router.partitioner.boundaries == before
    heat_shard(router, 0, 10_000.0)  # same imbalance persists
    router.fleet.plan_tick()
    assert router.transfer is not None
    assert router.partitioner.boundaries != before


def test_balanced_fleet_never_migrates():
    router = make_router()
    for __ in range(6):
        for sid in range(4):
            heat_shard(router, sid, 1_000.0)
        router.fleet.plan_tick()
    assert router.transfer is None
    assert router.fleet.migrations_started == 0


def test_threshold_clamps_to_fleet_width():
    # max/mean is bounded by 2.0 at two shards, so the default 2.2x
    # trigger must clamp (to 1.5) rather than never fire.
    router = make_router(shards=2)
    for __ in range(2):
        heat_shard(router, 0, 10_000.0)
        heat_shard(router, 1, 100.0)
        router.fleet.plan_tick()
    assert router.transfer is not None


def test_diffusion_moves_between_hottest_adjacent_pair():
    router = make_router()
    for __ in range(2):
        heat_shard(router, 0, 10_000.0)
        for sid in (1, 2, 3):
            heat_shard(router, sid, 100.0)
        router.fleet.plan_tick()
    migration = router.transfer
    assert (migration.src, migration.dst) == (0, 1)
    # The in-flight range already routes to the destination.
    assert router.partitioner.shard_of(migration.lo) == migration.dst
    assert router.partitioner.shard_of(migration.hi - 1) == migration.dst


def test_min_load_gate_keeps_cold_fleet_still():
    router = make_router()
    router.heat.note(0, 5, service_ns=4.0)  # total below min_load
    router.fleet.plan_tick()
    router.fleet.plan_tick()
    assert router.transfer is None


# ----------------------------------------------------------------------
# drain: live migration end to end
# ----------------------------------------------------------------------


def start_migration(router: ShardRouter) -> RangeTransfer:
    for __ in range(2):
        heat_shard(router, 0, 10_000.0)
        for sid in (1, 2, 3):
            heat_shard(router, sid, 100.0)
        router.fleet.plan_tick()
    assert router.transfer is not None
    return router.transfer


def test_drain_moves_keys_and_completes():
    router = make_router(rebalance="chunk:16")
    keys = list(range(100, SPACE, 61))
    router.put_many(keys, VALUE)
    model = dict.fromkeys(keys, VALUE)
    migration = start_migration(router)
    lo, hi = migration.lo, migration.hi
    in_flight = [k for k in keys if lo <= k < hi]
    assert in_flight, "test workload must cover the migrated range"
    guard = 0
    while router.transfer is not None:
        router.fleet.drain_tick()
        guard += 1
        assert guard < 10_000
    fleet = router.fleet
    assert fleet.migrations_completed == 1
    assert fleet.keys_moved >= len(in_flight)
    assert router.heat.ops == [0.0] * 4  # ledger reset on completion
    assert fleet._cooldown == fleet.config.cooldown_rounds
    # Every key still reads back; the moved range now lives on dst.
    assert router.get_many(keys) == [model[k] for k in keys]
    for key in in_flight:
        assert router.shards[migration.dst].read(key) == VALUE


def test_sanitizer_checks_migration_invariants():
    router = make_router()
    keys = list(range(100, SPACE, 61))
    router.put_many(keys, VALUE)
    start_migration(router)
    assert check_shard_router(router) == []
    # Corrupt the descriptor: the in-flight range no longer routes to dst.
    router.transfer.dst = router.transfer.src
    violations = check_shard_router(router)
    assert any(v.check == "shard-migration" for v in violations)


def test_sanitizer_audits_boundary_table():
    router = make_router()
    assert check_shard_router(router) == []
    router.partitioner.boundaries = (0, 5, 5, 9, SPACE)
    violations = check_shard_router(router)
    assert any(v.check == "shard-boundary" for v in violations)


# ----------------------------------------------------------------------
# scheduler wiring + determinism
# ----------------------------------------------------------------------


def test_router_registers_rebalance_tasks():
    router = make_router()
    names = {task.name for task in router.runtime.scheduler.tasks}
    assert {"rebalance", "rebalance_drain"} <= names
    plain = make_router(rebalance=None)
    names = {task.name for task in plain.runtime.scheduler.tasks}
    assert "rebalance" not in names


def drive_skewed():
    """A mixed single-op/batch workload skewed onto shard 0."""
    router = make_router(rebalance="interval:64+chunk:16+min_load:16+cooldown:1")
    lo, hi = router.partitioner.shard_range(0)
    hot = [lo + 1 + i % (hi - lo - 1) for i in range(0, 3000, 7)]
    spread = list(range(100, SPACE, 131))
    router.put_many(spread, VALUE)
    for round_no in range(6):
        for key in hot[round_no::6]:
            router.insert(key, VALUE)
            router.read(key)
        router.get_many(spread[round_no::3])
    state = (
        router.partitioner.boundaries,
        router.fleet.migrations_started,
        router.fleet.keys_moved,
        router.scan(0, 200),
        router.get_many(spread),
        [shard.stats.as_dict() for shard in router.shards],
        router.runtime.clock.cpu_ns,  # router's own clock stays dormant
    )
    return state


def test_rebalancing_run_is_deterministic():
    first = drive_skewed()
    assert first[-1] == 0  # migration work charges shard clocks only
    assert first == drive_skewed()
    assert first[1] >= 1, "workload must actually trigger a migration"


# ----------------------------------------------------------------------
# percentile helper + the skewed-serving benchmark
# ----------------------------------------------------------------------


def test_percentile_interpolates():
    from repro.bench.serve import _percentile

    assert _percentile([], 0.99) == 0.0
    assert _percentile([7.0], 0.0) == 7.0
    assert _percentile([7.0], 0.99) == 7.0
    # Two elements: q blends them linearly instead of collapsing onto
    # an order statistic (nearest-rank would call p50 the minimum).
    assert _percentile([10.0, 20.0], 0.5) == 15.0
    assert _percentile([10.0, 20.0], 0.99) == pytest.approx(19.9)
    assert _percentile([10.0, 20.0, 30.0], 0.5) == 20.0
    assert _percentile([10.0, 20.0, 30.0], 0.25) == 15.0
    assert _percentile([10.0, 20.0, 30.0], 1.0) == 30.0
    values = [float(v) for v in range(101)]
    assert _percentile(values, 0.95) == 95.0


def test_serve_skew_smoke_and_determinism():
    from repro.bench.serve import run_serve_skew

    kw = dict(shards=2, rate_kops=120.0, ops=3_000, keys=600, seed=7)
    first = run_serve_skew(smoke=True, **kw)
    assert first["smoke_ok"] is True
    assert first["warmup_ops"] == 750
    second = run_serve_skew(**kw)
    wall = ("preload_wall_s", "serve_wall_s", "smoke_ok")
    stable_a = {k: v for k, v in first.items() if k not in wall}
    stable_b = {k: v for k, v in second.items() if k not in wall}
    assert stable_a == stable_b


def test_serve_skew_validates_warmup_fraction():
    from repro.bench.serve import run_serve_skew

    with pytest.raises(ValueError, match="warmup_fraction"):
        run_serve_skew(ops=100, keys=50, warmup_fraction=1.0)

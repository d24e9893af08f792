"""Tests for heat-proportional budgets and true shard splits/merges.

Covers the budget config grammar and the ``proportional_split`` helper,
the budget round's hysteresis/floor/min-load gates and its
charge-free resizes, the router's conserved budget pool
(``apply_budgets`` / total ``set_memory_limit``), the live shrink path of
every registered system under every registered cache policy, true shard
splits and merges end to end (content preservation, budget conservation,
sanitizer cleanliness), the weighted partitioner's boundary-table swap
edge cases, the new ``shard-budget``/``shard-merge`` sanitizer checks,
the TPC-C re-fit seam, and the serving harness's forced split+merge
cycle.
"""

from __future__ import annotations

import pytest

from repro.check.sanitizer import check_shard_router
from repro.core.membudget import proportional_split
from repro.shard import (
    BudgetConfig,
    ShardRouter,
    WeightedRangePartitioner,
)
from repro.systems.factory import build_system

LIMIT = 256 * 1024
VALUE = b"budget-value!!!!"
SPACE = 1 << 16
ALL_SYSTEMS = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB", "ART-Multi")


def make_router(shards: int = 4, **kw) -> ShardRouter:
    kw.setdefault("base_system", "ART-LSM")
    kw.setdefault("memory_limit_bytes", LIMIT)
    kw.setdefault("partitioner", "weighted")
    kw.setdefault("key_space", SPACE)
    return ShardRouter(shards=shards, **kw)


def heat_shard(router: ShardRouter, sid: int, weight: float, samples: int = 32) -> None:
    lo, hi = router.partitioner.shard_range(sid)
    step = max(1, (hi - lo) // (samples + 1))
    per = weight / samples
    for i in range(samples):
        router.heat.note(sid, lo + 1 + i * step, service_ns=per)


# ----------------------------------------------------------------------
# proportional_split
# ----------------------------------------------------------------------


def test_proportional_split_conserves_total_exactly():
    for weights in ([1.0, 1.0], [9.0, 1.0, 0.0], [0.5, 0.25, 0.125, 0.125]):
        targets = proportional_split(100_003, weights, floor=16)
        assert sum(targets) == 100_003
        assert all(t >= 16 for t in targets)


def test_proportional_split_follows_weights():
    targets = proportional_split(1000, [3.0, 1.0], floor=1)
    assert targets[0] > targets[1]
    assert sum(targets) == 1000


def test_proportional_split_zero_weights_fall_back_to_equal():
    assert proportional_split(99, [0.0, 0.0, 0.0], floor=1) == [33, 33, 33]


def test_proportional_split_floor_clamps_to_feasible():
    # A floor larger than total/n cannot be honoured; it clamps so the
    # split stays feasible and still sums exactly.
    targets = proportional_split(10, [1.0, 1.0, 1.0], floor=100)
    assert sum(targets) == 10
    assert all(t >= 1 for t in targets)


def test_proportional_split_residue_lands_on_heaviest():
    targets = proportional_split(101, [1.0, 1.0, 3.0], floor=1)
    assert sum(targets) == 101
    assert targets[2] == max(targets)


# ----------------------------------------------------------------------
# BudgetConfig grammar
# ----------------------------------------------------------------------


def test_budget_config_validation():
    with pytest.raises(ValueError):
        BudgetConfig(interval_ops=0)
    with pytest.raises(ValueError):
        BudgetConfig(floor_fraction=1.5)
    with pytest.raises(ValueError):
        BudgetConfig(hysteresis=-0.1)
    with pytest.raises(ValueError):
        BudgetConfig(min_load=-1.0)


def test_budget_config_from_spec_and_coerce():
    assert BudgetConfig.from_spec("on") == BudgetConfig()
    custom = BudgetConfig.from_spec("interval:128+floor:0.1+hysteresis:0.05")
    assert custom.interval_ops == 128
    assert custom.floor_fraction == 0.1
    assert custom.hysteresis == 0.05
    with pytest.raises(ValueError):
        BudgetConfig.from_spec("warmth:9")
    assert BudgetConfig.coerce(None) is None
    assert BudgetConfig.coerce(False) is None
    assert BudgetConfig.coerce("off") is None
    assert BudgetConfig.coerce(True) == BudgetConfig()
    assert BudgetConfig.coerce(custom) is custom


def test_factory_budget_spec_routes_to_router():
    router = build_system(
        "Sharded@budget=on",
        memory_limit_bytes=LIMIT,
        shards=2,
        partitioner="weighted",
    )
    assert router.fleet.budget_config == BudgetConfig()
    names = {task.name for task in router.runtime.scheduler.tasks}
    assert "budget" in names
    with pytest.raises(ValueError, match="drop the explicit"):
        build_system(
            "Sharded@budget=on",
            memory_limit_bytes=LIMIT,
            shards=2,
            partitioner="weighted",
            budget="on",
        )


# ----------------------------------------------------------------------
# the budget pool on the router
# ----------------------------------------------------------------------


def test_router_opens_with_equal_budgets():
    router = make_router(shards=4)
    per = router.fleet.budgets[0]
    assert router.fleet.budgets == [per] * 4
    assert sum(router.fleet.budgets) == router.fleet.total


def test_apply_budgets_validates_coverage_and_conservation():
    router = make_router(shards=2)
    total = router.fleet.total
    with pytest.raises(ValueError, match="targets"):
        router.fleet.apply_budgets([total])
    with pytest.raises(ValueError, match="pool holds"):
        router.fleet.apply_budgets([total, total])
    router.fleet.apply_budgets([total - total // 4, total // 4])
    assert router.fleet.budgets == [total - total // 4, total // 4]
    assert check_shard_router(router) == []


def test_router_total_resize_preserves_ratios():
    router = make_router(shards=2)
    total = router.fleet.total
    router.fleet.apply_budgets([3 * total // 4, total - 3 * total // 4])
    router.set_memory_limit(2 * total)
    assert sum(router.fleet.budgets) == 2 * total
    assert router.fleet.total == 2 * total
    # The 3:1 shape survives the pool resize.
    assert router.fleet.budgets[0] > 2 * router.fleet.budgets[1]


def test_budget_round_follows_heat():
    router = make_router(shards=2, budget="interval:64+hysteresis:0.01")
    keys = list(range(50, SPACE, 97))
    router.put_many(keys, VALUE)
    equal = list(router.fleet.budgets)
    heat_shard(router, 0, 80_000.0)
    heat_shard(router, 1, 1_000.0)
    router.fleet.budget_tick()
    assert router.fleet.resplits == 1
    assert router.fleet.budgets != equal
    assert router.fleet.budgets[0] > router.fleet.budgets[1]
    assert sum(router.fleet.budgets) == router.fleet.total
    # Contents survive the resize and the ledger stays clean.
    assert router.get_many(keys) == [VALUE] * len(keys)
    assert check_shard_router(router) == []


def test_budget_round_hysteresis_and_min_load_gates():
    router = make_router(shards=2, budget="on")
    equal = list(router.fleet.budgets)
    # Below min_load: nothing moves however lopsided.
    router.heat.note(0, 5, service_ns=4.0)
    router.fleet.budget_tick()
    assert router.fleet.budgets == equal
    # Near-equal heat: inside the hysteresis band, nothing moves.
    heat_shard(router, 0, 10_000.0)
    heat_shard(router, 1, 9_900.0)
    router.fleet.budget_tick()
    assert router.fleet.budgets == equal
    assert router.fleet.resplits == 0


def test_budget_round_floor_protects_cold_shards():
    router = make_router(shards=2, budget="floor:0.25+hysteresis:0.01")
    heat_shard(router, 0, 100_000.0)
    heat_shard(router, 1, 1.0)
    router.fleet.budget_tick()
    equal = router.fleet.total / 2
    assert router.fleet.budgets[1] >= int(equal * 0.25)
    assert sum(router.fleet.budgets) == router.fleet.total


def test_budget_rounds_skip_while_migration_in_flight():
    router = make_router(shards=2, budget="hysteresis:0.01", rebalance="on")
    equal = list(router.fleet.budgets)
    for __ in range(2):
        heat_shard(router, 0, 10_000.0)
        heat_shard(router, 1, 100.0)
        router.fleet.plan_tick()
    assert router.transfer is not None
    heat_shard(router, 0, 10_000.0)
    router.fleet.budget_tick()
    assert router.fleet.budgets == equal  # skipped: placement still moving


def test_budget_resize_charges_nothing():
    router = make_router(shards=2, budget="interval:64+hysteresis:0.01")
    keys = list(range(50, SPACE, 997))
    router.put_many(keys, VALUE)
    heat_shard(router, 0, 80_000.0)
    heat_shard(router, 1, 1_000.0)
    before = [shard.snapshot() for shard in router.shards]
    router.fleet.budget_tick()
    assert router.fleet.resplits == 1
    for shard, snap in zip(router.shards, before):
        delta = snap.delta(shard.snapshot())
        assert delta.cpu_ns == 0.0
        assert delta.disk_busy_ns == 0.0


# ----------------------------------------------------------------------
# live shrink path: every system x every cache policy
# ----------------------------------------------------------------------


def _policy_matrix():
    from repro.cache.policy import policy_names

    for system in ALL_SYSTEMS:
        for policy in policy_names():
            yield system, policy


@pytest.mark.parametrize("system,policy", list(_policy_matrix()))
def test_set_memory_limit_shrink_preserves_contents(system, policy):
    from repro.core.config import CachePolicyConfig

    policies = CachePolicyConfig(pool=policy, block=policy, row=policy)
    engine = build_system(
        system,
        memory_limit_bytes=LIMIT,
        cache_policies=policies,
        debug_checks=True,
    )
    keys = list(range(100, SPACE, 61))
    engine.put_many(keys, VALUE)
    engine.flush()
    engine.set_memory_limit(LIMIT // 4)
    assert engine.get_many(keys) == [VALUE] * len(keys)
    # Grow back: also live, contents still intact.
    engine.set_memory_limit(LIMIT)
    assert engine.read(keys[0]) == VALUE


def test_sharded_art_multi_fleet_takes_budget_resplits():
    # ART-Multi had no live-resize seam: the first heat-driven re-split
    # of a Sharded(ART-Multi, budget=on) fleet raised NotImplementedError.
    router = make_router(shards=2, base_system="ART-Multi", budget="hysteresis:0.01")
    keys = list(range(50, SPACE, 97))
    router.put_many(keys, VALUE)
    heat_shard(router, 0, 80_000.0)
    heat_shard(router, 1, 1_000.0)
    router.fleet.budget_tick()
    assert router.fleet.resplits == 1
    hot, cold = router.shards
    assert hot.index.config.memory_limit_bytes == router.fleet.budgets[0]
    assert cold.index.config.memory_limit_bytes == router.fleet.budgets[1]
    assert router.fleet.budgets[0] > router.fleet.budgets[1]
    assert router.get_many(keys) == [VALUE] * len(keys)


def test_set_memory_limit_shrink_reparts_bplus_pool():
    engine = build_system("B+-B+", memory_limit_bytes=LIMIT)
    keys = list(range(100, SPACE, 61))
    engine.put_many(keys, VALUE)
    assert engine.tree.pool.config.capacity_bytes == LIMIT
    engine.set_memory_limit(LIMIT // 2)
    assert engine.tree.pool.config.capacity_bytes == LIMIT // 2
    assert engine.memory_bytes <= LIMIT // 2


def test_set_memory_limit_shrink_reparts_lsm_caches():
    # Budgets large enough that limit // 8 clears the 64 KiB block-cache
    # floor on both sides of the shrink.
    big = 4 << 20
    engine = build_system("RocksDB", memory_limit_bytes=big)
    keys = list(range(100, SPACE, 61))
    engine.put_many(keys, VALUE)
    assert engine.store.block_cache.capacity_bytes == big // 8
    engine.set_memory_limit(big // 2)
    assert engine.store.block_cache.capacity_bytes == big // 16


def test_set_memory_limit_shrink_enforces_indexy_watermark():
    engine = build_system("ART-LSM", memory_limit_bytes=LIMIT)
    keys = list(range(100, SPACE, 13))
    engine.put_many(keys, VALUE)
    releases_before = engine.index.stats["release_cycles"]
    engine.set_memory_limit(max(8 * 1024, engine.index.x.memory_bytes // 4))
    # enforce=True: a deep shrink triggers the release cycle immediately,
    # not lazily on the next insert.
    assert engine.index.stats["release_cycles"] > releases_before
    assert engine.get_many(keys[:50]) == [VALUE] * 50


# ----------------------------------------------------------------------
# weighted partitioner: split/merge boundary-table swaps
# ----------------------------------------------------------------------


def test_partitioner_split_shard_inserts_boundary():
    part = WeightedRangePartitioner(shards=2, key_space=100)
    part.split_shard(0, 20)
    assert part.shards == 3
    assert part.boundaries == (0, 20, 50, 100)
    assert part.shard_of(19) == 0
    assert part.shard_of(20) == 1
    assert part.shard_of(50) == 2


def test_partitioner_split_rejects_extremes():
    part = WeightedRangePartitioner(shards=2, key_space=100)
    # Split keys at the range edges would create an empty shard.
    with pytest.raises(ValueError, match="strictly inside"):
        part.split_shard(0, 0)
    with pytest.raises(ValueError, match="strictly inside"):
        part.split_shard(0, 50)
    with pytest.raises(ValueError, match="strictly inside"):
        part.split_shard(1, 100)
    with pytest.raises(ValueError, match="shard id"):
        part.split_shard(2, 75)


def test_partitioner_single_shard_fleet_edges():
    part = WeightedRangePartitioner(shards=1, key_space=100)
    # No interior boundary to remove on a single-shard fleet.
    with pytest.raises(ValueError, match="interior"):
        part.merge_shards(0)
    with pytest.raises(ValueError, match="interior"):
        part.merge_shards(1)
    part.split_shard(0, 50)
    assert part.boundaries == (0, 50, 100)
    part.merge_shards(1)
    assert part.boundaries == (0, 100)
    assert part.shards == 1


def test_partitioner_merge_then_split_round_trips():
    part = WeightedRangePartitioner(shards=3, key_space=300)
    before = part.boundaries
    part.merge_shards(1)
    assert part.boundaries == (0, 200, 300)
    part.split_shard(0, 100)
    assert part.boundaries == before


def test_partitioner_adjacent_equal_boundary_rejected():
    part = WeightedRangePartitioner(shards=2, key_space=100)
    part.move_boundary(1, 99)
    # Narrowest legal shard is one key wide; collapsing it is an error.
    with pytest.raises(ValueError):
        part.move_boundary(1, 100)
    with pytest.raises(ValueError, match="strictly inside"):
        part.split_shard(1, 99)


def test_partitioner_split_of_one_key_shard_rejected():
    part = WeightedRangePartitioner(shards=2, key_space=100)
    part.move_boundary(1, 99)  # shard 1 owns [99, 100)
    with pytest.raises(ValueError, match="strictly inside"):
        part.split_shard(1, 99)


# ----------------------------------------------------------------------
# true splits and merges on the router
# ----------------------------------------------------------------------


def test_begin_split_validates_preconditions():
    router = make_router(shards=2, rebalance="on")
    lo, hi = router.partitioner.shard_range(0)
    with pytest.raises(ValueError, match="outside"):
        router.fleet.begin(0, 1, hi + 10, spawn=True)
    with pytest.raises(ValueError, match="outside"):
        router.fleet.begin(0, 1, lo, spawn=True)
    hash_router = ShardRouter(shards=2, memory_limit_bytes=LIMIT, partitioner="hash")
    with pytest.raises(ValueError, match="weighted"):
        hash_router.fleet.begin(0, 1, 10, spawn=True)


def test_merge_validates_sid_range():
    router = make_router(shards=2, rebalance="on")
    with pytest.raises(ValueError, match="left neighbour"):
        router.fleet.begin(0, -1)
    with pytest.raises(ValueError, match="left neighbour"):
        router.fleet.begin(2, 1)


def test_fleet_change_resets_heat_ledger():
    router = make_router(shards=2, rebalance="on")
    heat_shard(router, 0, 5_000.0)
    lo, hi = router.partitioner.shard_range(0)
    router.fleet.begin(0, 1, (lo + hi) // 2, spawn=True)
    assert router.heat.shards == 3
    assert router.heat.ops == [0.0, 0.0, 0.0]
    assert router.heat.total_ops == [0, 0, 0]


def test_sanitizer_flags_budget_ledger_corruption():
    router = make_router(shards=2, debug_checks=True)
    assert check_shard_router(router) == []
    router.fleet.budgets[0] += 64  # breaks conservation
    violations = check_shard_router(router)
    assert any(v.check == "shard-budget" for v in violations)
    router.fleet.budgets[0] -= 64
    router.fleet.budgets.append(1)  # breaks coverage
    violations = check_shard_router(router)
    assert any(v.check == "shard-budget" for v in violations)


def test_sanitizer_flags_merge_descriptor_mismatch():
    router = make_router(shards=3, rebalance="on", debug_checks=True)
    router.put_many(list(range(100, SPACE, 61)), VALUE)
    router.fleet.begin(1, 0)
    assert check_shard_router(router) == []
    router.transfer.dst = 2  # a merge must drain into the left neighbour
    violations = check_shard_router(router)
    assert any(v.check == "shard-merge" for v in violations)


# ----------------------------------------------------------------------
# TPC-C: the re-fit seam across all orderline backends
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", ("ART-LSM", "ART-B+", "B+-B+", "RocksDB"))
def test_tpcc_set_memory_limit_refits_backend(backend):
    from repro.core.indexy import IndeXY
    from repro.diskbtree.tree import DiskBPlusTree
    from repro.lsm.store import LSMStore
    from repro.systems.art_bplus import _DiskBTreeAsY
    from repro.tpcc.engine import TpccConfig, TpccEngine

    engine = TpccEngine(
        TpccConfig(warehouses=1, items=100, orderline_backend=backend)
    )
    engine.run(100)
    engine.set_memory_limit(engine.config.memory_limit_bytes // 2)
    budget = engine._orderline_budget()
    backend_obj = engine.orderline
    if isinstance(backend_obj, IndeXY):
        # The X watermarks track the recomputed orderline budget...
        assert backend_obj.config.memory_limit_bytes == budget
        # ...and the Y-side caches were refit with constructor formulas.
        y = backend_obj.y
        if isinstance(y, LSMStore):
            assert y.block_cache.capacity_bytes == max(16 * 1024, budget // 20)
        else:
            assert isinstance(y, _DiskBTreeAsY)
            expected = max(16 * engine.config.page_size, budget // 10)
            assert y.tree.pool.config.capacity_bytes == expected
    elif isinstance(backend_obj, DiskBPlusTree):
        expected = max(2 * engine.config.page_size, budget)
        assert backend_obj.pool.config.capacity_bytes == expected
    else:
        assert isinstance(backend_obj, LSMStore)
        assert backend_obj.block_cache.capacity_bytes == max(16 * 1024, budget // 20)
    # The engine still runs transactions after the shrink.
    engine.run(100)


def test_tpcc_periodic_refit_leaves_buffers_as_built():
    from repro.tpcc.engine import TpccConfig, TpccEngine

    # B+-B+ has no IndeXY wrapper: the periodic refit moves X watermarks
    # only, so it must leave the pool exactly as built (the committed
    # results' behaviour).
    config = TpccConfig(warehouses=1, items=100, orderline_backend="B+-B+")
    frozen = TpccEngine(config)
    built_capacity = frozen.orderline.pool.config.capacity_bytes
    frozen.run(600)  # crosses the 256-txn refit boundary twice
    assert frozen.orderline.pool.config.capacity_bytes == built_capacity


# ----------------------------------------------------------------------
# serving harness: budgeted runs and the forced split+merge cycle
# ----------------------------------------------------------------------


def test_serve_skew_budget_reports_windows_and_determinism():
    from repro.bench.serve import run_serve_skew

    kw = dict(
        shards=2, rate_kops=120.0, ops=3_000, keys=600, seed=7,
        budget="interval:256+hysteresis:0.01", windows=4,
    )
    first = run_serve_skew(smoke=True, **kw)
    assert first["smoke_ok"] is True
    assert first["budget"] == "interval:256+hysteresis:0.01"
    assert len(first["windows"]) == 4
    for row in first["windows"]:
        assert len(row["budget_bytes"]) == row["shards"]
        assert len(row["cache_hit_rate"]) == row["shards"]
    assert sum(first["per_shard_budget_bytes"]) == first["memory_bytes"]
    second = run_serve_skew(**kw)
    wall = ("preload_wall_s", "serve_wall_s", "smoke_ok")
    assert {k: v for k, v in first.items() if k not in wall} == {
        k: v for k, v in second.items() if k not in wall
    }


def test_serve_skew_forced_cycle_splits_and_merges():
    from repro.bench.serve import run_serve_skew

    result = run_serve_skew(
        shards=2,
        rate_kops=120.0,
        ops=4_000,
        keys=600,
        seed=7,
        budget="on",
        force_cycle=True,
        smoke=True,
    )
    assert result["splits"] >= 1
    assert result["merges"] >= 1
    assert result["smoke_ok"] is True
    assert result["force_cycle"] is True
    assert sum(result["per_shard_budget_bytes"]) == result["memory_bytes"]


def test_serve_skew_force_cycle_requires_rebalance():
    from repro.bench.serve import run_serve_skew

    with pytest.raises(ValueError, match="force_cycle"):
        run_serve_skew(ops=100, keys=50, rebalance=None, force_cycle=True)

"""Tests for the sharded serving layer (``repro.shard``).

Covers the partitioners, the router's operation contract against a
reference dict model, scan merging across shards, accounting
aggregation, the factory registration, the shard-router sanitizer, and
the closed-loop serving harness.
"""

from __future__ import annotations

import pytest

from repro.check.sanitizer import CheckError, ShardSanitizer, check_shard_router
from repro.shard import HashPartitioner, ShardRouter, make_partitioner
from repro.systems import build_system, registered_systems
from repro.workloads import random_insert_keys

LIMIT = 256 * 1024
VALUE = b"payload-32-bytes" * 2


# -- partitioners --------------------------------------------------------


def test_hash_partitioner_covers_all_shards_and_is_stable():
    part = HashPartitioner(shards=4)
    keys = random_insert_keys(2000, key_space=1 << 40, seed=5)
    sids = [part.shard_of(k) for k in keys]
    assert set(sids) == {0, 1, 2, 3}
    assert sids == [part.shard_of(k) for k in keys]  # deterministic


def test_hash_partitioner_balances_uniform_keys():
    part = HashPartitioner(shards=8)
    batches = part.split(random_insert_keys(8000, key_space=1 << 40, seed=5))
    sizes = [len(b) for b in batches]
    assert min(sizes) > 0.5 * (8000 / 8)
    assert max(sizes) < 1.5 * (8000 / 8)


def test_range_partitioner_is_order_preserving():
    part = make_partitioner("weighted", 4, 1000)
    assert part.ordered
    assert [part.shard_of(k) for k in (0, 249, 250, 499, 500, 999)] == [0, 0, 1, 1, 2, 3]
    # Out-of-range keys clamp instead of raising.
    assert part.shard_of(-5) == 0
    assert part.shard_of(10**9) == 3


def test_split_indexed_roundtrip():
    part = HashPartitioner(shards=3)
    keys = list(range(100))
    batches, positions = part.split_indexed(keys)
    rebuilt: list[int | None] = [None] * len(keys)
    for sid, batch in enumerate(batches):
        for pos, key in zip(positions[sid], batch, strict=True):
            rebuilt[pos] = key
    assert rebuilt == keys


def test_make_partitioner_rejects_unknown_kind():
    for kind in ("consistent", "range"):
        with pytest.raises(ValueError, match="'hash', 'weighted'"):
            make_partitioner(kind, 4, 1 << 40)


# -- router vs reference model ------------------------------------------


# The ids name the placement: ``weighted`` at its default boundaries is
# the static equal-range placement.
@pytest.fixture(params=["hash", "weighted"], ids=["hash", "range"])
def router(request):
    return build_system(
        "Sharded",
        memory_limit_bytes=LIMIT,
        base_system="ART-LSM",
        shards=4,
        partitioner=request.param,
        key_space=1 << 40,
    )


def test_router_roundtrip_matches_reference_model(router):
    keys = random_insert_keys(3000, key_space=1 << 40, seed=11)
    router.put_many(keys, VALUE)
    model = {k: VALUE for k in keys}
    probe = keys[::3] + [1, 2, 3]  # include misses
    assert router.get_many(probe) == [model.get(k) for k in probe]
    assert router.read(keys[0]) == VALUE
    assert router.read(12345678901) is None


def test_router_scan_merges_shards_in_key_order(router):
    keys = sorted(set(random_insert_keys(2000, key_space=1 << 40, seed=13)))
    router.put_many(keys, VALUE)
    single = build_system("ART-LSM", memory_limit_bytes=LIMIT)
    single.put_many(keys, VALUE)
    start = keys[len(keys) // 2]
    got = router.scan(start, 50)
    assert got == single.scan(start, 50)
    scanned = [k for k, __ in got]
    assert scanned == sorted(scanned)


def test_router_delete_many_reports_presence(router):
    keys = random_insert_keys(200, key_space=1 << 40, seed=17)
    router.put_many(keys, VALUE)
    flags = router.delete_many(keys[:50] + [999999999999])
    assert flags == [True] * 50 + [False]
    assert router.get_many(keys[:50]) == [None] * 50
    # Double delete reports absence.
    assert router.delete_many(keys[:5]) == [False] * 5


def test_router_update_and_rmw_route_through_shards(router):
    router.insert(7, b"old")
    router.update(7, b"new")
    assert router.read(7) == b"new"
    router.read_modify_write(7, b"newer")
    assert router.read(7) == b"newer"


def test_router_snapshot_aggregates_shard_accounts(router):
    keys = random_insert_keys(1000, key_space=1 << 40, seed=19)
    router.put_many(keys, VALUE)
    total = router.snapshot()
    per_shard = router.shard_snapshots()
    assert total.ops == sum(s.ops for s in per_shard) == 1000
    assert total.cpu_ns == pytest.approx(sum(s.cpu_ns for s in per_shard))
    assert router.memory_bytes == sum(s.memory_bytes for s in router.shards)


def test_router_shards_are_fully_independent(router):
    runtimes = {id(shard.runtime) for shard in router.shards}
    clocks = {id(shard.clock) for shard in router.shards}
    assert len(runtimes) == len(clocks) == len(router.shards)
    assert id(router.runtime) not in runtimes  # router substrate is dormant
    router.put_many(random_insert_keys(500, key_space=1 << 40, seed=23), VALUE)
    assert router.runtime.clock.cpu_ns == 0


def test_router_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        ShardRouter(shards=0)


@pytest.mark.parametrize("partitioner", ["hash", "weighted"])
def test_router_rejects_a_key_space_smaller_than_the_shard_count(partitioner):
    with pytest.raises(ValueError, match="key_space must be >= shards, got 2 < 4"):
        build_system("Sharded", 1 << 20, shards=4, key_space=2, partitioner=partitioner)
    assert build_system("Sharded", 1 << 20, shards=4, key_space=4, partitioner=partitioner)


@pytest.mark.parametrize("workers", [2, 4])
def test_router_rejects_worker_threads(workers):
    # Batches are dispatched serially; 0 and 1 are the only accepted
    # values, kept for callers that still pass the keyword.
    with pytest.raises(ValueError, match="workers"):
        build_system("Sharded", memory_limit_bytes=LIMIT, shards=4, workers=workers)
    for serial in (0, 1):
        assert build_system("Sharded", memory_limit_bytes=LIMIT, shards=2, workers=serial)


# -- factory -------------------------------------------------------------


def test_factory_registers_sharded_system():
    names = registered_systems()
    assert "Sharded" in names and "ART-Multi" in names
    router = build_system("Sharded", memory_limit_bytes=LIMIT, shards=2)
    assert router.num_shards == 2
    assert router.name == "Sharded-ART-LSMx2"


def test_factory_error_lists_registered_systems():
    with pytest.raises(ValueError) as exc:
        build_system("FancyDB", memory_limit_bytes=LIMIT)
    message = str(exc.value)
    assert "FancyDB" in message
    for name in registered_systems():
        assert name in message


@pytest.mark.parametrize("base", ["ART-LSM", "ART-B+", "B+-B+", "RocksDB"])
def test_router_wraps_every_table1_system(base):
    router = build_system("Sharded", memory_limit_bytes=LIMIT, base_system=base, shards=2)
    keys = random_insert_keys(300, key_space=1 << 40, seed=31)
    router.put_many(keys, VALUE)
    assert router.get_many(keys[:30]) == [VALUE] * 30


# -- sanitizer -----------------------------------------------------------


def test_check_shard_router_passes_on_healthy_router():
    router = build_system("Sharded", memory_limit_bytes=LIMIT, shards=4)
    assert check_shard_router(router) == []


def test_check_shard_router_detects_shared_substrate():
    router = build_system("Sharded", memory_limit_bytes=LIMIT, shards=4)
    router.shards[1] = router.shards[0]  # corrupt: two slots, one engine
    names = {v.check for v in check_shard_router(router)}
    assert "shard-isolation" in names


def test_shard_sanitizer_raises_on_corruption():
    router = build_system("Sharded", memory_limit_bytes=LIMIT, shards=2)
    sanitizer = ShardSanitizer(router, interval=1)
    sanitizer.after_op()  # healthy: no raise
    router.shards[1] = router.shards[0]
    with pytest.raises(CheckError):
        sanitizer.after_op()


def test_router_builds_sanitizers_when_debug_checks_enabled():
    router = build_system("Sharded", memory_limit_bytes=LIMIT, shards=2, debug_checks=True)
    assert router.sanitizer is not None
    # The default cadence checks once per 1024 operations.
    router.put_many(random_insert_keys(1200, key_space=1 << 40, seed=37), VALUE)
    assert router.sanitizer.checks_run > 0


# -- serving harness -----------------------------------------------------


def test_serve_smoke_and_shard_scaling():
    from repro.bench.serve import run_serve

    one = run_serve(shards=1, clients=8, ops=1500, keys=1000, seed=7)
    four = run_serve(shards=4, clients=8, ops=1500, keys=1000, seed=7)
    assert one["ops"] == four["ops"] == 1500
    assert sum(four["per_shard_ops"]) == 1500
    # The acceptance bar: >=2x aggregate get-heavy throughput at 4 shards.
    assert four["throughput_kops"] >= 2 * one["throughput_kops"]
    for r in (one, four):
        assert r["p50_us"] <= r["p95_us"] <= r["p99_us"]
        assert r["p50_us"] > 0


def test_serve_is_deterministic():
    from repro.bench.serve import run_serve

    a = run_serve(shards=2, clients=4, ops=600, keys=500, seed=3)
    b = run_serve(shards=2, clients=4, ops=600, keys=500, seed=3)
    for key in ("throughput_kops", "p50_us", "p95_us", "p99_us", "makespan_ms", "per_shard_ops"):
        assert a[key] == b[key]


def test_serve_cli_runs(capsys):
    from repro.bench.serve import main

    assert main(["--shards", "2", "--clients", "4", "--ops", "400", "--keys", "300"]) == 0
    out = capsys.readouterr().out
    assert "kops/sim-s" in out


def test_serve_skew_runs_on_two_keys():
    # A two-key Zipf population used to divide by zero building its sampler.
    from repro.bench.serve import run_serve_skew

    assert run_serve_skew(keys=2, ops=200, shards=2)["ops"] == 200


def test_serve_cli_has_no_workers_flag(capsys):
    from repro.bench.serve import main

    with pytest.raises(SystemExit) as exc:
        main(["--workers", "2", "--ops", "10"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err


@pytest.mark.parametrize(
    "runner, name, value",
    [
        ("run_serve", "ops", 0),
        ("run_serve", "clients", 0),
        ("run_serve_skew", "ops", 0),
        ("run_serve_skew", "rate_kops", 0.0),
        ("run_serve_skew", "rate_kops", -5.0),
    ],
)
def test_serve_rejects_empty_runs_by_name(runner, name, value):
    from repro.bench import serve

    with pytest.raises(ValueError, match=name):
        getattr(serve, runner)(keys=200, **{name: value})

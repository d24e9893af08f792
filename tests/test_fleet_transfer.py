"""One transfer, three uses: the shared contract of ``FleetController``'s
range-transfer state machine (DESIGN.md §11).

A boundary move (left or right), a split, a merge and a single-key merge
are the same ``begin -> drain -> finish`` lifecycle, so one parametrised
test asserts the whole contract on each: the descriptor is published
before the routing table swaps, every verb agrees with a dict model at
every drain step (including a client write and a delete racing the drain
into the destination), the budget pool is conserved throughout, and the
shard and ownership sanitizers stay clean.  A second test pins the
router's aggregate ``snapshot()`` monotone across a split and a merge —
the retired engine's accounts must stay with the fleet.
"""

from __future__ import annotations

from dataclasses import astuple

import pytest

from repro.check.sanitizer import check_shard_router
from repro.shard import ShardRouter

LIMIT = 256 * 1024
VALUE = b"transfer-value!!"
FRESH = b"fresher-client-write"
SPACE = 1 << 16


def make_router(shards: int) -> ShardRouter:
    return ShardRouter(
        base_system="ART-LSM",
        shards=shards,
        memory_limit_bytes=LIMIT,
        partitioner="weighted",
        key_space=SPACE,
        # Every paced task is pushed out of reach: the tests drive the
        # drain themselves so each step can be checked against the model.
        rebalance="chunk:64+interval:1000000+drain:1000000",
        budget="interval:1000000",
        debug_checks=True,
    )


def assert_serves_model(router: ShardRouter, model: dict[int, bytes]) -> None:
    keys = sorted(model)
    assert router.get_many(keys) == [model[k] for k in keys]
    for key in keys[:: max(1, len(keys) // 16)]:
        assert router.read(key) == model[key]
    for start in (keys[0], keys[len(keys) // 3], keys[-20]):
        got = [(int.from_bytes(k, "big"), v) for k, v in router.scan(start, 40)]
        want = [(k, model[k]) for k in keys if k >= start][:40]
        assert got == want
    fleet = router.fleet
    assert len(fleet.budgets) == router.num_shards
    assert sum(fleet.budgets) == fleet.total
    assert check_shard_router(router) == []


#: case -> (dst relative to src, key given, spawn, fleet size change)
CASES = {
    "move-left": (-1, True, False, 0),
    "move-right": (+1, True, False, 0),
    "split": (+1, True, True, +1),
    "merge": (-1, False, False, -1),
    "merge-one-key": (-1, False, False, -1),
}


@pytest.mark.parametrize("case", list(CASES))
def test_one_transfer_lifecycle(case):
    step, keyed, spawn, growth = CASES[case]
    router = make_router(shards=3)
    fleet, part = router.fleet, router.partitioner
    src = 1
    if case == "merge-one-key":
        part.move_boundary(2, part.shard_range(src)[0] + 1)  # src owns one key
    lo, hi = part.shard_range(src)
    model = dict.fromkeys(range(100, SPACE, 37), VALUE)
    model[lo] = model[hi - 1] = VALUE  # both edges of the source range hold a key
    router.put_many(sorted(model), VALUE)
    total = fleet.total

    # Record what the data path could see at every routing-table swap.
    swaps: list[tuple[str, object]] = []
    for name in ("move_boundary", "split_shard", "merge_shards"):

        def spy(*args, _swap=getattr(part, name), _name=name):
            swaps.append((_name, router.transfer))
            return _swap(*args)

        setattr(part, name, spy)

    cut = (lo + hi) // 2
    fleet.begin(src, src + step, cut if keyed else None, spawn=spawn)

    transfer = router.transfer
    if case == "merge-one-key":
        # Nothing to drain in bulk: the whole lifecycle ran inside begin,
        # and no descriptor was ever visible to the data path.
        assert transfer is None
        assert swaps == [("merge_shards", None)]
        moved = [lo]
    else:
        # The one commit point: descriptor first, then the table swap.
        assert swaps == [("split_shard" if spawn else "move_boundary", transfer)]
        assert transfer is not None and transfer.retire == (not keyed)
        assert (transfer.src, transfer.dst) == (src, src + step)
        assert part.shard_of(transfer.lo) == part.shard_of(transfer.hi - 1) == transfer.dst
        moved = sorted(k for k in model if transfer.covers(k))
        assert len(moved) > 64, "the drain must take several steps"
        # A client write and a delete race the drain: both route to the
        # destination while the source still holds the stale copies.
        racer, victim = moved[-2], moved[-3]
        router.insert(racer, FRESH)
        model[racer] = FRESH
        assert router.delete(victim) is True
        del model[victim]
        moved.remove(victim)
        steps = 0
        while router.transfer is not None:
            assert_serves_model(router, model)
            fleet.drain_tick()
            steps += 1
            assert steps < 1_000
        assert steps > 1
        assert fleet.keys_moved >= len(moved)

    # finish: bookkeeping shared by every use.
    assert fleet.migrations_completed == 1
    assert fleet.migrations_started == 0  # only the planner counts its moves
    assert fleet._cooldown == fleet.config.cooldown_rounds
    assert router.heat.ops == [0.0] * router.num_shards
    assert router.num_shards == 3 + growth
    assert fleet.total == total
    if growth:
        kind = "split" if spawn else "merge"
        assert fleet.events == [(kind, src)]
        assert router.runtime.stats[f"fleet_{kind}s"] == 1
        assert router.name == f"Sharded-ART-LSMx{3 + growth}"
        assert router.heat.shards == router.num_shards
    else:
        assert fleet.events == []
    if growth < 0:
        # A retire drops the boundary after the descriptor is cleared.
        assert swaps[-1] == ("merge_shards", None)
        dst_engine = router.shards[src - 1]
    else:
        dst_engine = router.shards[src + step]
    assert_serves_model(router, model)
    assert router.read(lo) == model[lo] and router.read(hi - 1) == model[hi - 1]
    # The moved range physically lives on the destination engine now.
    for key in moved[:: max(1, len(moved) // 20)]:
        assert dst_engine.read(key) == model[key]


def test_begin_rejects_a_second_transfer_and_bad_geometry():
    router = make_router(shards=3)
    fleet = router.fleet
    lo, hi = router.partitioner.shard_range(1)
    with pytest.raises(ValueError, match="outside"):
        fleet.begin(1, 2, hi)
    with pytest.raises(ValueError, match="adjacent"):
        fleet.begin(0, 2, 5)
    with pytest.raises(ValueError, match="left neighbour"):
        fleet.begin(1, 2)  # a retire only folds leftwards
    with pytest.raises(ValueError, match="spawn"):
        fleet.begin(1, 0, (lo + hi) // 2, spawn=True)
    fleet.begin(1, 2, (lo + hi) // 2)
    with pytest.raises(RuntimeError, match="in flight"):
        fleet.begin(1, 0)


def test_snapshot_is_monotone_across_split_and_merge():
    router = make_router(shards=4)
    fleet = router.fleet
    keys = list(range(100, SPACE, 37))
    router.put_many(keys, VALUE)
    router.flush()
    total = fleet.total
    seen = [astuple(router.snapshot())]

    def observe() -> None:
        now = astuple(router.snapshot())
        assert all(b >= a for a, b in zip(seen[-1], now)), (seen[-1], now)
        seen.append(now)

    def drain() -> None:
        while router.transfer is not None:
            fleet.drain_tick()
            observe()

    lo, hi = router.partitioner.shard_range(1)
    fleet.begin(1, 2, (lo + hi) // 2, spawn=True)
    observe()
    drain()
    assert router.num_shards == 5
    fleet.begin(3, 2)
    observe()
    drain()
    assert router.num_shards == 4
    assert [kind for kind, __ in fleet.events] == ["split", "merge"]
    # The retired engine's accounts stayed with the fleet.
    assert router.retired.ops > 0
    assert seen[-1][3] > seen[0][3]
    assert sum(fleet.budgets) == total == fleet.total
    assert router.get_many(keys) == [VALUE] * len(keys)
    assert check_shard_router(router) == []

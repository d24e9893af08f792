"""Closed-loop concurrent-serving harness (``python -m repro.bench.serve``).

Models ``--clients`` closed-loop clients issuing a Zipfian get-heavy
mix against a :class:`~repro.shard.router.ShardRouter` with
``--shards`` partitions.  Each client keeps exactly one request in
flight: it issues, waits for completion, then immediately issues the
next.  Requests queue *per shard* — a shard serves one request at a
time in simulated time, so hot shards build queues while idle shards
drain — and the run reports aggregate throughput plus p50/p95/p99
request latency.

All reported quantities are **simulated** time, the house currency of
this repo (see EXPERIMENTS.md, "Wall-clock vs. simulated time"):

* a request's *service time* is the simulated cost of its operation on
  the owning shard, read off that shard's :class:`Snapshot` delta;
* its *latency* is queueing delay + service time;
* the run's *makespan* is the completion time of the last request, and
  aggregate throughput is ``ops / makespan``.

Because every shard owns an independent :class:`EngineRuntime`, N
shards serve N requests concurrently; the makespan is bounded by the
busiest shard.  That is the mechanism behind the shard-count scaling
table in EXPERIMENTS.md — and it is fully deterministic: the event
loop pops (ready_time, client_id) pairs from a heap, so results are
byte-stable across runs and platforms.

``--skew`` switches to the hot-range scenario (DESIGN.md §11): plain
(unscrambled) Zipf ranks map onto *sorted* key positions, so the popular
keys cluster at the low end of the key space and a contiguous range
partition pins one shard.  Unlike the default scenario this one is
**open loop** — a seeded Poisson process offers ``--rate`` kops per
simulated second whether or not the fleet keeps up, the fair way to
compare tail latency across configurations with different capacity.
The harness runs the scenario twice — elastic rebalancing off, then on —
and reports the before/after latency percentiles plus migration
counters.  ``--smoke`` (CI) additionally verifies the rebalanced router
against a reference model and a never-rebalanced replay, and fails
unless at least one migration ran.

Usage::

    python -m repro.bench.serve --shards 4 --clients 16
    python -m repro.bench.serve --sweep 1,2,4,8       # scaling table
    python -m repro.bench.serve --system RocksDB --get-fraction 0.5
    python -m repro.bench.serve --skew --shards 4     # hot-range + rebalancing
    python -m repro.bench.serve --skew --smoke --sanitize --shards 2
"""

from __future__ import annotations

import argparse
import heapq
import json
import random
import sys
from dataclasses import replace

# Wall-clock is reported alongside (never mixed into) simulated results.
from time import perf_counter  # reprolint: allow[RL004]
from typing import Any

from repro.shard.config import BudgetConfig, RebalanceConfig
from repro.shard.partition import PARTITIONERS

__all__ = ["run_serve", "run_serve_skew", "main"]


def _percentile(sorted_values: list[float], q: float) -> float:
    """Linear-interpolation percentile of an already-sorted sample.

    Nearest-rank misreports tiny samples badly — on a 2-element sample
    ``ceil(0.5 * 2) = 1`` makes p50 the *minimum* while p99 sits on the
    maximum, so percentiles collapse onto the order statistics.  The
    interpolated definition (NumPy's default) places ``q`` at fractional
    position ``q * (N - 1)`` and blends the two neighbouring samples.
    """
    if not sorted_values:
        return 0.0
    last = len(sorted_values) - 1
    position = q * last
    lower = int(position)
    upper = min(lower + 1, last)
    fraction = position - lower
    return sorted_values[lower] + (sorted_values[upper] - sorted_values[lower]) * fraction


def _require_positive(**values: float) -> None:
    """Reject a non-positive harness input by name.

    With no ops there is no latency to average, with no clients no
    request is ever issued, and a rate of zero or below has no arrival
    gap.
    """
    for name, value in values.items():
        if not value > 0:
            raise ValueError(f"{name} must be > 0, got {value}")


def run_serve(
    system: str = "ART-LSM",
    shards: int = 4,
    clients: int = 16,
    ops: int = 20_000,
    keys: int = 5_000,
    value_bytes: int = 100,
    get_fraction: float = 0.95,
    theta: float = 0.7,
    seed: int = 7,
    partitioner: str = "hash",
    memory_bytes: int | None = None,
) -> dict[str, Any]:
    """Run one closed-loop serving experiment; returns a metrics dict.

    ``memory_bytes`` is the *total* budget across all shards (constant
    while sweeping shard counts); the default forces roughly two thirds
    of the data below the memory line so Index Y is actually exercised.
    """
    from repro.systems.factory import build_system
    from repro.workloads import ZipfianGenerator, random_insert_keys

    _require_positive(ops=ops, clients=clients)
    if memory_bytes is None:
        memory_bytes = max(64 * 1024, keys * (value_bytes + 64) // 3)
    value = b"v" * value_bytes

    router = build_system(
        "Sharded",
        memory_limit_bytes=memory_bytes,
        base_system=system,
        shards=shards,
        partitioner=partitioner,
    )

    wall0 = perf_counter()
    key_list = random_insert_keys(keys, key_space=1 << 40, seed=seed)
    router.put_many(key_list, value)
    router.flush()
    preload_wall_s = perf_counter() - wall0

    shard_of = router.partitioner.shard_of
    engines = router.shards
    models = [shard.thread_model for shard in engines]

    # Per-client request streams: independent, explicitly seeded.
    rngs = [random.Random(seed * 1000 + cid) for cid in range(clients)]
    zipfs = [ZipfianGenerator(keys, theta=theta, seed=seed * 1000 + cid) for cid in range(clients)]

    # Closed loop over simulated time.  The heap orders clients by the
    # time their previous request completed; ties break on client id,
    # so the pop order — and with it every simulated account — is
    # deterministic.
    heap: list[tuple[float, int]] = [(0.0, cid) for cid in range(clients)]
    heapq.heapify(heap)
    free_at = [0.0] * shards
    shard_ops = [0] * shards
    latencies_ns: list[float] = []
    makespan_ns = 0.0

    wall0 = perf_counter()
    for _ in range(ops):
        ready_ns, cid = heapq.heappop(heap)
        rng = rngs[cid]
        if rng.random() < get_fraction:
            key = key_list[zipfs[cid].next()]
            is_get = True
        else:
            key = rng.randrange(1 << 40)
            is_get = False
        sid = shard_of(key)
        engine = engines[sid]
        before = engine.snapshot()
        if is_get:
            engine.read(key)
        else:
            engine.insert(key, value)
        service_ns = before.delta(engine.snapshot()).elapsed_ns(1, models[sid])
        start_ns = free_at[sid] if free_at[sid] > ready_ns else ready_ns
        finish_ns = start_ns + service_ns
        free_at[sid] = finish_ns
        shard_ops[sid] += 1
        latencies_ns.append(finish_ns - ready_ns)
        if finish_ns > makespan_ns:
            makespan_ns = finish_ns
        heapq.heappush(heap, (finish_ns, cid))
    serve_wall_s = perf_counter() - wall0

    latencies_ns.sort()
    makespan_s = makespan_ns / 1e9 if makespan_ns > 0 else 1e-12
    return {
        "system": system,
        "shards": shards,
        "clients": clients,
        "ops": ops,
        "keys": keys,
        "get_fraction": get_fraction,
        "theta": theta,
        "memory_bytes": memory_bytes,
        "throughput_kops": round(ops / makespan_s / 1e3, 3),
        "p50_us": round(_percentile(latencies_ns, 0.50) / 1e3, 3),
        "p95_us": round(_percentile(latencies_ns, 0.95) / 1e3, 3),
        "p99_us": round(_percentile(latencies_ns, 0.99) / 1e3, 3),
        "mean_us": round(sum(latencies_ns) / len(latencies_ns) / 1e3, 3),
        "makespan_ms": round(makespan_ns / 1e6, 3),
        "per_shard_ops": shard_ops,
        "preload_wall_s": round(preload_wall_s, 3),
        "serve_wall_s": round(serve_wall_s, 3),
    }


class _Lane:
    """One shard's slot in the open-loop queueing model.

    The router's engines carry no notion of time-of-day; the harness
    keeps, per live engine, the simulated instant it next falls idle
    (``free_at``), the ops it served, and the cache-hit baseline of the
    current reporting window.  ``lanes[sid]`` mirrors ``router.shards``.
    """

    __slots__ = ("engine", "free_at", "ops", "hits")

    def __init__(self, engine: Any, free_at: float = 0.0) -> None:
        self.engine = engine
        self.free_at = free_at
        self.ops = 0
        self.hits = engine.cache_hit_stats()


def _settle(lanes: list[_Lane], befores: list[Any]) -> float:
    """Charge maintenance work to the engines that did it.

    ``befores`` are the lanes' engine snapshots taken before the work;
    each engine's simulated time since then extends its busy horizon —
    maintenance competes with serving on exactly the shards involved,
    so a cheaper p99 cannot come from uncharged work.  Returns the
    total charged.
    """
    total = 0.0
    for lane, before in zip(lanes, befores):
        engine = lane.engine
        spent = before.delta(engine.snapshot()).elapsed_ns(1, engine.thread_model)
        lane.free_at += spent
        total += spent
    return total


def _follow_fleet(lanes: list[_Lane], router: Any, now_ns: float) -> None:
    """Fold the controller's split/merge events into the lanes."""
    events = router.fleet.events
    if not events:
        return
    for kind, sid in events:
        if kind == "split":
            # The new shard is born idle: it can serve (and drain) from
            # the current arrival onward.
            lanes.insert(sid + 1, _Lane(router.shards[sid + 1], now_ns))
        else:
            gone = lanes.pop(sid)
            kept = lanes[sid - 1]
            kept.free_at = max(kept.free_at, gone.free_at)
            kept.ops += gone.ops
    events.clear()
    # Per-window hit-rate deltas restart: positions changed identity.
    for lane in lanes:
        lane.hits = lane.engine.cache_hit_stats()


def run_serve_skew(
    system: str = "ART-LSM",
    shards: int = 4,
    rate_kops: float = 120.0,
    ops: int = 60_000,
    keys: int = 5_000,
    value_bytes: int = 100,
    get_fraction: float = 0.95,
    theta: float = 0.99,
    seed: int = 7,
    rebalance: str | None = "on",
    memory_bytes: int | None = None,
    warmup_fraction: float = 0.25,
    smoke: bool = False,
    budget: str | None = None,
    force_cycle: bool = False,
    windows: int = 8,
) -> dict[str, Any]:
    """One open-loop run of the hot-range scenario; returns metrics.

    Gets draw plain Zipf ranks mapped onto *sorted* key positions, so
    the popular keys are spatially clustered and a contiguous range
    partition concentrates the load on one shard.  ``rebalance`` is a
    :meth:`RebalanceConfig.from_spec` spec (``None`` disables — the
    before side of the comparison).  Both sides use the weighted range
    partitioner, so placement is identical until a boundary moves.

    Unlike :func:`run_serve`, arrivals are *open loop*: a seeded Poisson
    process offers ``rate_kops`` thousand ops per simulated second
    regardless of how the fleet is keeping up, and latency is measured
    from arrival.  A closed loop throttles its clients to whatever the
    slowest shard sustains, so it compares the two configurations at
    different offered loads — rebalancing doubles the achieved
    throughput and the extra admitted ops mask the tail win.  Fixing the
    offered load is the standard tail-latency methodology: both sides
    see byte-identical arrival times, and the p99 difference is pure
    queueing delay on the hot shard.

    The latency percentiles exclude the first ``warmup_fraction`` of
    ops (also standard): the rebalanced side pays a convergence
    transient — the hot shard's queue peaks while the first migrations
    are still in flight — and the interesting comparison is the steady
    state each configuration settles into, not the cost of getting
    there.  The warmup window applies identically to both sides, and
    the full-run counters (throughput, makespan, per-shard ops) stay
    unwindowed.

    Migration work is charged to the source and destination engines and
    extends their busy horizon in the queueing model: migrating competes
    with serving on the involved shards, while the rest of the fleet
    keeps serving — the "live" in live migration.

    ``smoke`` keeps a reference dict model of every write and, after
    draining any still-active migration, verifies ``get_many`` against
    the model and ``scan`` against a never-rebalanced replay router.

    ``budget`` is a :meth:`BudgetConfig.from_spec` spec enabling the
    heat-proportional budget layer (DESIGN.md §11.4).  Like draining,
    the re-split task is driven by the harness rather than the op-paced
    scheduler, every ``interval`` ops, with the resize work (release
    cycles, cache evictions a grow/shrink triggers) charged to the
    involved engines' busy horizons so a cheaper p99 cannot come from
    uncharged maintenance.

    ``force_cycle`` forces one shard *split* once a third of the ops
    have been served and one *merge* at two thirds (each waits until no
    transfer is in flight) — the deterministic way to exercise the
    fleet-elasticity machinery end to end under the smoke checks;
    requires ``rebalance`` (the heat ledger that picks the split key).
    Organic splits/merges are configured through the rebalance spec
    instead (``max_shards``/``split_load``/``merge_load``).

    Every run reports ``windows`` evenly spaced samples of per-shard
    budget bytes and cache hit rates (hits over hits+misses since the
    previous window), the observable a budget move actually shifts.
    """
    from repro.systems.factory import build_system
    from repro.workloads import ZipfianGenerator, random_insert_keys

    _require_positive(ops=ops, rate_kops=rate_kops)
    if not 0.0 <= warmup_fraction < 1.0:
        raise ValueError(f"warmup_fraction must be in [0, 1), got {warmup_fraction}")
    if memory_bytes is None:
        memory_bytes = max(64 * 1024, keys * (value_bytes + 64) // 3)
    value = b"v" * value_bytes

    # The harness drains migrations itself, opportunistically, whenever
    # the involved pair of engines has no serving backlog ("migration
    # runs at low priority").  The scheduler's own op-paced drain task
    # is therefore pushed out to a backstop cadence: op pacing knows
    # nothing about queue depth, and an op-paced drain floods the
    # migrating pair with background work precisely while the rest of
    # the fleet is fast.
    config = RebalanceConfig.coerce(rebalance)
    if config is not None:
        config = replace(config, drain_interval_ops=1 << 30)
    if force_cycle and config is None:
        raise ValueError("force_cycle needs rebalancing on (the drain machinery)")
    # The budget task gets the same treatment as draining: its scheduler
    # pacing is pushed out and the harness drives it at the configured
    # interval with explicit busy-horizon accounting.
    budget_config = BudgetConfig.coerce(budget)
    if budget_config is not None:
        budget_interval = budget_config.interval_ops
        budget_config = replace(budget_config, interval_ops=1 << 30)
    else:
        budget_interval = 0

    router = build_system(
        "Sharded",
        memory_limit_bytes=memory_bytes,
        base_system=system,
        shards=shards,
        partitioner="weighted",
        rebalance=config,
        budget=budget_config,
    )

    wall0 = perf_counter()
    key_list = random_insert_keys(keys, key_space=1 << 40, seed=seed)
    sorted_keys = sorted(key_list)
    router.put_many(key_list, value)
    router.flush()
    preload_wall_s = perf_counter() - wall0

    fleet = router.fleet
    partitioner = router.partitioner
    # ``lanes[sid]`` mirrors ``router.shards[sid]``; splits and merges
    # are folded in from the controller's event log right after every
    # step that can cause one.
    lanes = [_Lane(engine) for engine in router.shards]
    # Structural planning (organic splits/merges) resizes engines from
    # inside the scheduler-paced planning task; only then is the extra
    # per-op bookkeeping needed to keep the busy horizons honest.
    structural = config is not None and (
        config.split_load > 0.0 or config.merge_load > 0.0
    )

    rng = random.Random(seed * 1000 + 1)
    zipf = ZipfianGenerator(keys, theta=theta, seed=seed * 1000 + 2)
    arrivals = random.Random(seed * 1000 + 3)
    mean_gap_ns = 1e9 / (rate_kops * 1e3)
    latencies_ns: list[float] = []
    makespan_ns = 0.0
    migration_busy_ns = 0.0
    budget_busy_ns = 0.0
    reshard_busy_ns = 0.0
    model: dict[int, bytes] = dict.fromkeys(key_list, value)
    window_ops = max(1, ops // max(1, windows))
    window_rows: list[dict[str, Any]] = []
    # Forced fleet cycle: one split at a third of the run, one merge at
    # two thirds, each deferred until no transfer is in flight.
    forced = (
        [(ops // 3, fleet.split_heaviest), (2 * ops // 3, fleet.merge_lightest)]
        if force_cycle
        else []
    )

    wall0 = perf_counter()
    ready_ns = 0.0
    for i in range(ops):
        ready_ns += arrivals.expovariate(1.0) * mean_gap_ns
        if rng.random() < get_fraction:
            key = sorted_keys[zipf.next()]
            is_get = True
        else:
            key = rng.randrange(1 << 40)
            is_get = False
        sid = partitioner.shard_of(key)
        lane = lanes[sid]
        engine = lane.engine
        before = engine.snapshot()
        fallback = None
        if is_get:
            transfer = router.transfer
            if engine.read(key) is None and transfer is not None and transfer.covers(key):
                # Double-read under the published descriptor: the key
                # has not been copied off the transfer source yet.
                fallback = lanes[transfer.src]
        else:
            engine.insert(key, value)
            model[key] = value
        service_ns = before.delta(engine.snapshot()).elapsed_ns(1, engine.thread_model)
        start_ns = max(ready_ns, lane.free_at)
        if fallback is not None:
            source = fallback.engine
            before = source.snapshot()
            source.read(key)
            service_ns += before.delta(source.snapshot()).elapsed_ns(1, source.thread_model)
            start_ns = max(start_ns, fallback.free_at)
        finish_ns = start_ns + service_ns
        lane.free_at = finish_ns
        if fallback is not None:
            fallback.free_at = finish_ns
        lane.ops += 1
        latencies_ns.append(finish_ns - ready_ns)
        if finish_ns > makespan_ns:
            makespan_ns = finish_ns

        # Heat + drain + pacing.  Draining is opportunistic: a chunk
        # moves only when neither involved engine has a serving backlog
        # (their busy horizon is at or behind the current simulated
        # frontier) — transfers run at low priority, consuming idle
        # capacity instead of starving queued requests.
        router.note_heat(sid, key, service_ns, start_ns - ready_ns)
        active = router.transfer
        if active is not None:
            pair = [lanes[active.src], lanes[active.dst]]
            if pair[0].free_at <= finish_ns and pair[1].free_at <= finish_ns:
                befores = [side.engine.snapshot() for side in pair]
                fleet.drain_tick()
                migration_busy_ns += _settle(pair, befores)
                _follow_fleet(lanes, router, ready_ns)

        if forced and i + 1 >= forced[0][0] and router.transfer is None:
            # Shard weights are the ops each lane served so far; the
            # split shard's half-budget shrink may trigger an immediate
            # release cycle, which lands on its busy horizon.  An
            # infeasible reshape (False) is retried on the next op.
            reshape = forced[0][1]
            present = list(lanes)
            befores = [side.engine.snapshot() for side in present]
            if reshape([side.ops for side in present]):
                del forced[0]
                reshard_busy_ns += _settle(present, befores)
                _follow_fleet(lanes, router, ready_ns)

        # The paced budget task, harness-driven like draining: resize
        # work (release cycles, evictions) lands on the engines' clocks.
        if budget_interval and (i + 1) % budget_interval == 0:
            befores = [side.engine.snapshot() for side in lanes]
            fleet.budget_tick()
            budget_busy_ns += _settle(lanes, befores)

        if structural:
            # Organic splits/merges fire inside the paced planning task;
            # snapshot around the tick so their resize work is charged
            # to the pre-event shards.
            present = list(lanes)
            befores = [side.engine.snapshot() for side in present]
            router.maintenance_tick(1)
            if fleet.events:
                reshard_busy_ns += _settle(present, befores)
                _follow_fleet(lanes, router, ready_ns)
        else:
            router.maintenance_tick(1)

        if (i + 1) % window_ops == 0:
            rates: list[float | None] = []
            for side in lanes:
                h0, m0 = side.hits
                side.hits = h1, m1 = side.engine.cache_hit_stats()
                lookups = (h1 - h0) + (m1 - m0)
                rates.append(round((h1 - h0) / lookups, 4) if lookups > 0 else None)
            window_rows.append(
                {
                    "op": i + 1,
                    "shards": len(lanes),
                    "budget_bytes": list(fleet.budgets),
                    "cache_hit_rate": rates,
                }
            )
    serve_wall_s = perf_counter() - wall0

    smoke_ok: bool | None = None
    if smoke:
        # Quiesce: drain any still-active transfer, then verify.
        guard = 0
        while router.transfer is not None:
            fleet.drain_tick()
            guard += 1
            if guard > 100_000:
                raise RuntimeError("transfer failed to drain")
        probe = sorted(model)
        gets_ok = router.get_many(probe) == [model[k] for k in probe]
        reference = build_system(
            "Sharded",
            memory_limit_bytes=memory_bytes,
            base_system=system,
            shards=shards,
            partitioner="weighted",
        )
        reference.put_many(probe, value)
        starts = [probe[0], probe[len(probe) // 2], probe[-10]]
        scans_ok = all(
            router.scan(start, 100) == reference.scan(start, 100) for start in starts
        )
        smoke_ok = gets_ok and scans_ok

    warmup_ops = int(ops * warmup_fraction)
    measured = latencies_ns[warmup_ops:]
    measured.sort()
    makespan_s = makespan_ns / 1e9 if makespan_ns > 0 else 1e-12
    result = {
        "system": system,
        "scenario": "skew",
        "shards": shards,
        "rate_kops": rate_kops,
        "ops": ops,
        "warmup_ops": warmup_ops,
        "keys": keys,
        "get_fraction": get_fraction,
        "theta": theta,
        "memory_bytes": memory_bytes,
        "rebalance": rebalance if rebalance is not None else "off",
        "budget": budget if budget is not None else "off",
        "force_cycle": force_cycle,
        "throughput_kops": round(ops / makespan_s / 1e3, 3),
        "p50_us": round(_percentile(measured, 0.50) / 1e3, 3),
        "p95_us": round(_percentile(measured, 0.95) / 1e3, 3),
        "p99_us": round(_percentile(measured, 0.99) / 1e3, 3),
        "mean_us": round(sum(measured) / len(measured) / 1e3, 3),
        "makespan_ms": round(makespan_ns / 1e6, 3),
        "per_shard_ops": [lane.ops for lane in lanes],
        "migrations": fleet.migrations_started,
        "keys_moved": fleet.keys_moved,
        "migration_busy_ms": round(migration_busy_ns / 1e6, 3),
        # Forced and planned splits/merges alike are counted by the
        # controller's fleet-event stats.
        "splits": int(router.runtime.stats["fleet_splits"]),
        "merges": int(router.runtime.stats["fleet_merges"]),
        "budget_resplits": int(router.runtime.stats["budget_resplits"]),
        "budget_busy_ms": round(budget_busy_ns / 1e6, 3),
        "reshard_busy_ms": round(reshard_busy_ns / 1e6, 3),
        "final_shards": len(lanes),
        "per_shard_budget_bytes": list(fleet.budgets),
        "windows": window_rows,
        "preload_wall_s": round(preload_wall_s, 3),
        "serve_wall_s": round(serve_wall_s, 3),
    }
    if smoke_ok is not None:
        result["smoke_ok"] = smoke_ok
    return result


def _print_row(r: dict[str, Any]) -> None:
    print(
        f"  {r['shards']:>6} {r['clients']:>7} {r['ops']:>8}"
        f" {r['throughput_kops']:>12.1f} {r['p50_us']:>9.1f}"
        f" {r['p95_us']:>9.1f} {r['p99_us']:>9.1f} {r['serve_wall_s']:>8.2f}"
    )


def _main_skew(args: argparse.Namespace, shard_counts: list[int]) -> int:
    """The ``--skew`` driver: before/after rebalancing per shard count."""
    theta = args.theta if args.theta is not None else 0.99
    if not args.json:
        print(
            f"repro.bench.serve --skew: {args.system}, open loop at "
            f"{args.rate:g} kops/sim-s, {args.ops} ops, zipf(theta={theta}) "
            f"over sorted keys, {args.get_fraction:.0%} gets, "
            f"rebalance spec {args.rebalance!r}, budget spec {args.budget!r}"
            + (", forced split+merge cycle" if args.force_cycle else "")
        )
        print(
            f"  {'shards':>6} {'rebalance':>10} {'budget':>7} {'p50_us':>9}"
            f" {'p95_us':>9} {'p99_us':>9} {'kops/sim-s':>12} {'migr':>5}"
            f" {'moved':>7} {'spl':>4} {'mrg':>4}"
        )
    failures: list[str] = []
    for shards in shard_counts:
        pair: list[dict[str, Any]] = []
        for spec in (None, args.rebalance):
            r = run_serve_skew(
                system=args.system,
                shards=shards,
                rate_kops=args.rate,
                ops=args.ops,
                keys=args.keys,
                value_bytes=args.value_bytes,
                get_fraction=args.get_fraction,
                theta=theta,
                seed=args.seed,
                rebalance=spec,
                memory_bytes=args.memory_bytes,
                warmup_fraction=args.warmup_fraction,
                smoke=args.smoke,
                # The baseline side stays bare: the comparison isolates
                # what the elastic layers (boundaries, budgets, fleet
                # size) add over a fixed-everything router.
                budget=args.budget if spec is not None else None,
                force_cycle=args.force_cycle and spec is not None,
            )
            pair.append(r)
            if args.json:
                print(json.dumps(r))
            else:
                print(
                    f"  {r['shards']:>6} {r['rebalance'][:10]:>10}"
                    f" {r['budget'][:7]:>7} {r['p50_us']:>9.1f}"
                    f" {r['p95_us']:>9.1f} {r['p99_us']:>9.1f}"
                    f" {r['throughput_kops']:>12.1f} {r['migrations']:>5}"
                    f" {r['keys_moved']:>7} {r['splits']:>4} {r['merges']:>4}"
                )
        before, after = pair
        if not args.json and after["p99_us"] > 0:
            ratio = before["p99_us"] / after["p99_us"]
            print(f"  p99 improvement at {shards} shard(s): {ratio:.2f}x")
        if args.smoke and shards > 1:
            if after["migrations"] < 1:
                failures.append(f"{shards} shards: no migration occurred")
            if not after.get("smoke_ok", False):
                failures.append(
                    f"{shards} shards: rebalanced results diverged from the "
                    "reference model / never-rebalanced replay"
                )
            if before.get("smoke_ok") is False:
                failures.append(f"{shards} shards: baseline run diverged")
            if args.force_cycle:
                if after["splits"] < 1:
                    failures.append(f"{shards} shards: forced split never ran")
                if after["merges"] < 1:
                    failures.append(f"{shards} shards: forced merge never ran")
    if failures:
        for failure in failures:
            print(f"SMOKE FAIL: {failure}", file=sys.stderr)
        return 1
    if args.smoke and not args.json:
        print("  smoke: migrations occurred and post-migration reads/scans verified")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.serve", description=__doc__)
    parser.add_argument("--system", default="ART-LSM", help="base system per shard")
    parser.add_argument("--shards", type=int, default=4)
    parser.add_argument("--clients", type=int, default=16)
    parser.add_argument(
        "--ops",
        type=int,
        default=None,
        help="request count (default 20000; 60000 with --skew)",
    )
    parser.add_argument("--keys", type=int, default=5_000, help="preloaded key count")
    parser.add_argument("--value-bytes", type=int, default=100)
    parser.add_argument("--get-fraction", type=float, default=0.95)
    parser.add_argument(
        "--theta",
        type=float,
        default=None,
        help="Zipfian skew (default 0.7; 0.99 with --skew)",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--partitioner", choices=PARTITIONERS, default="hash")
    parser.add_argument("--memory-bytes", type=int, default=None, help="total budget")
    parser.add_argument("--sweep", default=None, help="comma-separated shard counts")
    parser.add_argument(
        "--skew",
        action="store_true",
        help="hot-range scenario: before/after elastic rebalancing",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="with --skew: verify correctness and require >= 1 migration",
    )
    parser.add_argument(
        "--rebalance",
        default="threshold:2.2+cooldown:8",
        help="rebalance spec for the --skew 'after' run (RebalanceConfig.from_spec)",
    )
    parser.add_argument(
        "--budget",
        default=None,
        help=(
            "with --skew: heat-proportional budget spec for the 'after' run "
            "(BudgetConfig.from_spec, e.g. 'on' or 'interval:256+floor:0.1')"
        ),
    )
    parser.add_argument(
        "--force-cycle",
        action="store_true",
        help=(
            "with --skew: force one shard split at ops/3 and one merge at "
            "2*ops/3 in the 'after' run (with --smoke, both must complete)"
        ),
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=120.0,
        help="with --skew: offered load in kops per simulated second (open loop)",
    )
    parser.add_argument(
        "--warmup-fraction",
        type=float,
        default=0.25,
        help="with --skew: fraction of ops excluded from latency percentiles",
    )
    parser.add_argument("--sanitize", action="store_true", help="enable runtime sanitizers")
    parser.add_argument("--json", action="store_true", help="emit metrics as JSON lines")
    args = parser.parse_args(argv)

    if args.sanitize:
        from repro.check.flags import set_sanitize

        set_sanitize(True)

    shard_counts = (
        [int(tok) for tok in args.sweep.split(",") if tok.strip()]
        if args.sweep
        else [args.shards]
    )

    if args.ops is None:
        args.ops = 60_000 if args.skew else 20_000

    if args.skew:
        return _main_skew(args, shard_counts)

    theta = args.theta if args.theta is not None else 0.7
    if not args.json:
        print(
            f"repro.bench.serve: {args.system}, {args.clients} closed-loop clients, "
            f"{args.ops} ops, zipf(theta={theta}) {args.get_fraction:.0%} gets"
        )
        print(
            f"  {'shards':>6} {'clients':>7} {'ops':>8} {'kops/sim-s':>12}"
            f" {'p50_us':>9} {'p95_us':>9} {'p99_us':>9} {'wall_s':>8}"
        )
    results = []
    for shards in shard_counts:
        r = run_serve(
            system=args.system,
            shards=shards,
            clients=args.clients,
            ops=args.ops,
            keys=args.keys,
            value_bytes=args.value_bytes,
            get_fraction=args.get_fraction,
            theta=theta,
            seed=args.seed,
            partitioner=args.partitioner,
            memory_bytes=args.memory_bytes,
        )
        results.append(r)
        if args.json:
            print(json.dumps(r))
        else:
            _print_row(r)
    if not args.json and len(results) > 1:
        base = results[0]["throughput_kops"]
        scaling = ", ".join(
            f"{r['shards']}x={r['throughput_kops'] / base:.2f}" for r in results
        )
        print(f"  speedup vs {results[0]['shards']} shard(s): {scaling}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

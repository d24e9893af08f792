"""Per-layer metrics: counter snapshots, span aggregates, the sim oracle.

Counts are deltas of the program's own ledgers (``StatCounters``, the
disk stats, the cache and pool hit/miss counters) taken just before and
just after a pass.  Simulated statistics are deterministic for a fixed
seed, so they are reported as an oracle, not gated as performance: a
host-only optimisation must leave every ``sim.*`` value bit-identical.
"""

from __future__ import annotations

from typing import Any

from repro.lsm.store import LSMStore

from spans import LAYERS, Tracer, engines_of
from timing import percentile
from workloads import PAIR_BYTES

_ENGINE_STATS = (
    "ops", "x_hits", "y_hits", "misses", "release_cycles", "release_keys_written",
    "preclean_keys_written", "task_preclean_runs",
)  # fmt: skip
_DISK_STATS = ("reads", "bytes_written")
_ROUTER_STATS = ("rebalance_migrations_started", "rebalance_keys_moved", "budget_resplits")
_POOL_STATS = ("pool_hits", "pool_misses", "evictions", "writebacks")


def snapshot(system: Any) -> dict[str, float]:
    """Cumulative counters and end-state gauges, summed over the engines."""
    snap: dict[str, float] = dict.fromkeys(
        _ENGINE_STATS + _DISK_STATS + _ROUTER_STATS + _POOL_STATS
        + ("cpu_ns", "background_ns", "disk_ns", "flushes", "compactions", "block_hits",
           "block_misses", "row_hits", "row_misses", "cache_evictions", "x_bytes", "x_keys",
           "disk_used_bytes"),
        0,
    )  # fmt: skip
    for engine in engines_of(system):
        for name in _ENGINE_STATS:
            snap[name] += engine.stats[name]
        snap["cpu_ns"] += engine.clock.cpu_ns
        snap["background_ns"] += engine.clock.background_ns
        snap["disk_ns"] += engine.disk.busy_ns
        for name in _DISK_STATS:
            snap[name] += engine.disk.stats[name]
        snap["disk_used_bytes"] += engine.disk.used_bytes
        snap["x_bytes"] += engine.index.x.memory_bytes
        snap["x_keys"] += engine.index.x.key_count
        store = engine.index.y
        if isinstance(store, LSMStore):
            snap["flushes"] += store.stats["flushes"]
            snap["compactions"] += store.stats["compactions"]
            snap["block_hits"] += store.block_cache.hits
            snap["block_misses"] += store.block_cache.misses
            snap["cache_evictions"] += store.block_cache.evictions
            if store.row_cache is not None:
                snap["row_hits"] += store.row_cache.hits
                snap["row_misses"] += store.row_cache.misses
                snap["cache_evictions"] += store.row_cache.evictions
        else:
            for name in _POOL_STATS:
                snap[name] += store.tree.pool.stats[name]
    if hasattr(system, "shards"):
        for name in _ROUTER_STATS:
            snap[name] += system.runtime.stats[name]
    return snap


def shard_ops(system: Any) -> list[float]:
    return [engine.stats["ops"] for engine in engines_of(system)]


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def sim_elapsed_ns(system: Any, cpu_ns: float, background_ns: float, disk_ns: float) -> float:
    """Simulated elapsed time of one client (the engines' own thread model)."""
    return engines_of(system)[0].thread_model.elapsed_ns(cpu_ns, background_ns, disk_ns, 1)


def count_metrics(
    system: Any,
    before: dict[str, float],
    after: dict[str, float],
    ops_before: list[float],
    ops: int,
    writes: int,
    live_pairs: int,
) -> dict[str, float]:
    """Every per-layer metric that is a count, a ratio of counts, or simulated."""
    d = {name: after[name] - before[name] for name in after}
    per_shard = [now - then for now, then in zip(shard_ops(system), ops_before, strict=True)]
    sharded = hasattr(system, "shards")
    elapsed_ns = sim_elapsed_ns(system, d["cpu_ns"], d["background_ns"], d["disk_ns"])
    pool_accesses = d["pool_hits"] + d["pool_misses"]
    # The buffer pool evicts through its own cache policy, so its
    # evictions are the cache layer's on the page-based workload.
    evictions = d["cache_evictions"] + d["evictions"]
    return {
        "shard.migrations": d["rebalance_migrations_started"],
        "shard.keys_moved": d["rebalance_keys_moved"],
        "shard.budget_resplits": d["budget_resplits"],
        "shard.imbalance": (
            _ratio(max(per_shard) * len(per_shard), sum(per_shard)) if sharded else 0.0
        ),
        "core.x_hit_rate": _ratio(d["x_hits"], d["x_hits"] + d["y_hits"] + d["misses"]),
        "core.loads_per_op": d["y_hits"] / ops,
        "core.release_cycles": d["release_cycles"],
        "core.preclean_passes": d["task_preclean_runs"],
        "core.writeback_keys_per_op": (
            (d["release_keys_written"] + d["preclean_keys_written"]) / ops
        ),
        "art.bytes_per_key": _ratio(after["x_bytes"], after["x_keys"]),
        "lsm.flushes": d["flushes"],
        "lsm.compactions": d["compactions"],
        "diskbtree.pool_hit_rate": _ratio(d["pool_hits"], pool_accesses),
        "diskbtree.pool_evictions_per_op": d["evictions"] / ops,
        "diskbtree.writebacks_per_op": d["writebacks"] / ops,
        "cache.block_hit_rate": _ratio(d["block_hits"], d["block_hits"] + d["block_misses"]),
        "cache.row_hit_rate": _ratio(d["row_hits"], d["row_hits"] + d["row_misses"]),
        "cache.evictions_per_op": evictions / ops,
        "sim.us_per_op": elapsed_ns / ops / 1e3,
        "sim.kops": _ratio(ops * 1e6, elapsed_ns),
        "sim.disk_reads_per_op": d["reads"] / ops,
        "sim.write_amp": _ratio(d["bytes_written"], writes * PAIR_BYTES),
        "sim.space_amp": _ratio(after["disk_used_bytes"], live_pairs * PAIR_BYTES),
        "sim.bg_share": _ratio(d["background_ns"], d["cpu_ns"] + d["background_ns"]),
    }


def span_metrics(
    system: Any, tracer: Tracer, start: dict[str, float], ops: int, wall_ns: int
) -> tuple[dict[str, float], dict[str, dict[str, Any]]]:
    """Per-layer time metrics from the spans, plus the per-function table."""
    functions = tracer.summary()

    def total_us(name: str) -> float:
        return functions[name]["total_ns"] / 1e3 if name in functions else 0.0

    def calls(name: str) -> int:
        return functions[name]["calls"] if name in functions else 0

    self_ns = dict.fromkeys(LAYERS, 0)
    for row in functions.values():
        self_ns[row["layer"]] += row["self_ns"]
    metrics = {f"{layer}.self_us_per_op": ns / ops / 1e3 for layer, ns in self_ns.items()}
    # Whatever no span covers is the driver's own loop, checks and stamps.
    metrics["driver.self_us_per_op"] = (wall_ns - tracer.root_ns()) / ops / 1e3

    descents = sum(calls(f"DiskBPlusTree.{verb}") for verb in ("get", "put", "scan", "delete"))
    codec_us = sum(total_us(codec) for codec in ("encode_page", "decode_page", "copy_page"))
    metrics.update(
        {
            "core.release_ms_per_cycle": _ratio(
                total_us("IndeXY.release_cycle") / 1e3, calls("IndeXY.release_cycle")
            ),
            "lsm.get_us": _ratio(total_us("LSMStore.get"), calls("LSMStore.get")),
            "lsm.put_batch_us": _ratio(total_us("LSMStore.put_batch"), calls("LSMStore.put_batch")),
            "lsm.compaction_ms_total": total_us("task:lsm_compaction") / 1e3,
            "lsm.tables_per_get": _ratio(calls("SSTable.get"), calls("LSMStore.get")),
            "diskbtree.pages_per_lookup": _ratio(calls("BufferPool.get_page"), descents),
            "diskbtree.codec_us_per_op": codec_us / ops,
        }
    )

    # Simulated latency of each driver-issued op, from the root samples.
    elapsed_ns = engines_of(system)[0].thread_model.elapsed_ns
    cpu0, bg0, disk0 = start["cpu_ns"], start["background_ns"], start["disk_ns"]
    latencies = []
    for cpu, bg, disk in zip(tracer.sim_cpu, tracer.sim_bg, tracer.sim_disk):
        latencies.append(elapsed_ns(cpu - cpu0, bg - bg0, disk - disk0, 1))
        cpu0, bg0, disk0 = cpu, bg, disk
    latencies.sort()
    metrics["sim.p99_us"] = percentile(latencies, 0.99) / 1e3 if latencies else 0.0
    return metrics, functions

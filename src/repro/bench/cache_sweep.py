"""Eviction-policy × workload sweep over the pluggable cache framework.

``python -m repro.bench cache_sweep`` runs every registered eviction
policy (DESIGN.md §9) against four workload shapes on the two systems
whose caches dominate their read path:

* **RocksDB** — the policy drives both the block cache and the row
  cache (``RocksDB@block=P,row=P``); the reported hit rate is the block
  cache's over the measured phase.
* **B+-B+** — the policy drives the disk-B+ buffer pool
  (``B+-B+@pool=P``); the hit rate is the pool's frame hit rate.

The workload shapes stress different replacement behaviours:

=============  ======================================================
ycsb_a         YCSB A (50% read / 50% update, Zipfian 0.7)
ycsb_b         YCSB B (95% read / 5% update, Zipfian 0.7)
scan_cycle     cyclic full-keyspace scans, the classic LRU-thrashing
               pattern where MRU-style retention wins
tpcc_mix       a TPC-C-shaped mix (45% update, 43% read, 8% short
               scan, 4% insert-at-frontier, Zipfian 0.7)
=============  ======================================================

Everything is deterministic: fixed seeds, simulated time, insertion-
order tie-breaks in the policies.  ``--smoke`` shrinks the grid to
2 policies × 2 workloads for CI and skips the ``results/`` write;
``--sanitize`` additionally sweeps a :class:`CacheSanitizer` (and
``check_buffer_pool``) over the live caches between operation chunks.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Iterator

from repro.bench.report import format_table
from repro.cache.policy import policy_names
from repro.check.flags import sanitize_enabled
from repro.systems import build_system
from repro.workloads import YCSB_WORKLOADS, generate_ycsb_ops, run_ops
from repro.workloads.distributions import ScrambledZipfianGenerator
from repro.workloads.ycsb import Op

LIMIT = 96 * 1024
THREADS = 4
RECORDS = 8_000
OPERATIONS = 2_500
VALUE_BYTES = 64
CHUNK = 512


def _ycsb(workload: str, records: int, operations: int) -> Iterator[Op]:
    return generate_ycsb_ops(YCSB_WORKLOADS[workload], records, operations, seed=17)


def _scan_cycle(records: int, operations: int, length: int = 80) -> Iterator[Op]:
    """Cyclic scans over the whole keyspace, wrapping back to key 0."""
    start = 0
    for __ in range(operations):
        yield ("scan", start, length)
        start += length
        if start >= records:
            start = 0


def _tpcc_mix(records: int, operations: int) -> Iterator[Op]:
    """A TPC-C-shaped operation mix over the KV interface.

    Approximates the transaction profile — payment/new-order updates,
    order-status reads, short stock-level scans, and new orders arriving
    at the key frontier — without the full TPC-C engine, so it can run
    against any :class:`~repro.systems.base.KVSystem`.
    """
    rng = random.Random(23)
    picker = ScrambledZipfianGenerator(records, 0.7, 23)
    frontier = records
    names = ("update", "read", "scan", "insert")
    weights = (0.45, 0.43, 0.08, 0.04)
    for __ in range(operations):
        op = rng.choices(names, weights)[0]
        if op == "insert":
            yield ("insert", frontier, 0)
            frontier += 1
        elif op == "scan":
            yield ("scan", picker.next(), 20)
        else:
            yield (op, picker.next(), 0)


WORKLOADS: dict[str, Callable[[int, int], Iterator[Op]]] = {
    "ycsb_a": lambda r, n: _ycsb("A", r, n),
    "ycsb_b": lambda r, n: _ycsb("B", r, n),
    "scan_cycle": _scan_cycle,
    "tpcc_mix": _tpcc_mix,
}

SMOKE_POLICIES = ("lru", "s3fifo")
SMOKE_WORKLOADS = ("ycsb_b", "scan_cycle")


def _run_measured(system, ops: Iterator[Op], check: Callable[[], None] | None) -> int:
    """Drive ``ops`` through the system in chunks, sanitizing between."""
    executed = 0
    it = iter(ops)
    while True:
        batch = list(islice(it, CHUNK))
        if not batch:
            break
        executed += run_ops(system, iter(batch), value_size=VALUE_BYTES, sparse=False)
        if check is not None:
            check()
    return executed


def _rocksdb_checker(system) -> Callable[[], None]:
    from repro.check.sanitizer import CacheSanitizer

    caches = {"block": system.store.block_cache}
    if system.store.row_cache is not None:
        caches["row"] = system.store.row_cache
    sanitizer = CacheSanitizer(caches, interval=1)
    return sanitizer.check_now


def _pool_checker(system) -> Callable[[], None]:
    from repro.check.sanitizer import CheckError, check_buffer_pool

    def check() -> None:
        violations = check_buffer_pool(system.tree.pool)
        if violations:
            raise CheckError(violations)

    return check


def _measure_rocksdb(policy: str, workload: str, records: int, operations: int) -> dict:
    system = build_system(f"RocksDB@block={policy},row={policy}", memory_limit_bytes=LIMIT)
    for key in range(records):
        system.insert(key, b"v" * VALUE_BYTES)
    system.flush()
    cache = system.store.block_cache
    hits0, misses0 = cache.hits, cache.misses
    check = _rocksdb_checker(system) if sanitize_enabled() else None
    before = system.snapshot()
    executed = _run_measured(system, WORKLOADS[workload](records, operations), check)
    delta = before.delta(system.snapshot())
    return _cell(executed, delta, system, cache.hits - hits0, cache.misses - misses0)


def _measure_bplus(policy: str, workload: str, records: int, operations: int) -> dict:
    system = build_system(f"B+-B+@pool={policy}", memory_limit_bytes=LIMIT)
    for key in range(records):
        system.insert(key, b"v" * VALUE_BYTES)
    system.flush()
    stats = system.tree.pool.stats
    hits0, misses0 = stats.get("pool_hits"), stats.get("pool_misses")
    check = _pool_checker(system) if sanitize_enabled() else None
    before = system.snapshot()
    executed = _run_measured(system, WORKLOADS[workload](records, operations), check)
    delta = before.delta(system.snapshot())
    hits = stats.get("pool_hits") - hits0
    misses = stats.get("pool_misses") - misses0
    return _cell(executed, delta, system, hits, misses)


def _cell(executed: int, delta, system, hits: float, misses: float) -> dict:
    elapsed_s = delta.elapsed_ns(THREADS, system.thread_model) / 1e9
    accesses = hits + misses
    return {
        "hit_rate": hits / accesses if accesses else 0.0,
        "kops": executed / elapsed_s / 1e3 if elapsed_s else 0.0,
    }


def _sweep_table(title: str, measure, policies, workloads, records, operations) -> tuple:
    grid: dict[str, dict[str, dict]] = {}
    for policy in policies:
        grid[policy] = {}
        for workload in workloads:
            grid[policy][workload] = measure(policy, workload, records, operations)
    headers = ["Policy"] + [f"{wl} hit%/kops" for wl in workloads]
    rows = []
    for policy in policies:
        row = [policy]
        for workload in workloads:
            cell = grid[policy][workload]
            row.append(f"{cell['hit_rate'] * 100:.1f} / {cell['kops']:.1f}")
        rows.append(row)
    return format_table(title, headers, rows), grid


def cache_sweep(smoke: bool = False) -> dict:
    """Run the policy × workload grid; returns the structured payload."""
    if smoke:
        policies: tuple[str, ...] = SMOKE_POLICIES
        workloads: tuple[str, ...] = SMOKE_WORKLOADS
        records, operations = 2_000, 600
    else:
        policies = tuple(policy_names())
        workloads = tuple(WORKLOADS)
        records, operations = RECORDS, OPERATIONS

    rocks_table, rocks_grid = _sweep_table(
        "Cache sweep: RocksDB block cache (hit% / KOPS)",
        _measure_rocksdb,
        policies,
        workloads,
        records,
        operations,
    )
    pool_table, pool_grid = _sweep_table(
        "Cache sweep: B+-B+ buffer pool (hit% / KOPS)",
        _measure_bplus,
        policies,
        workloads,
        records,
        operations,
    )
    table = rocks_table + "\n\n" + pool_table
    return {
        "policies": list(policies),
        "workloads": list(workloads),
        "rocksdb_block_cache": rocks_grid,
        "bplus_buffer_pool": pool_grid,
        "table": table,
    }

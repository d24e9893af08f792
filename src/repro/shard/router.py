"""``ShardRouter``: N independent IndeXY engines behind one KV front-end.

The first multi-engine layer of the codebase.  The router partitions the
integer key space over ``shards`` fully independent
:class:`~repro.systems.base.KVSystem` instances (any factory-buildable
system) and routes operations by partition:

* ``insert``/``read``/``delete``/``scan`` go straight to the owning
  shard — no router-side locks, queues, or counters on the data path;
* ``put_many``/``get_many``/``delete_many`` are split into per-shard
  sub-batches in one pass, then each shard's verb runs once on its
  sub-batch, in shard order, on the calling thread;
* ``scan`` results from the consulted shards are k-way merged with
  :func:`heapq.merge` (each key lives on exactly one shard, so the merge
  needs no duplicate resolution).

Every shard keeps its own :class:`~repro.sim.runtime.EngineRuntime` —
its own clock, disk, stats bus, memory budget, pre-cleaner, and Index Y
— so all of the paper's mechanisms (pre-cleaning, subtree release,
migration, compaction) operate per shard exactly as in the single-engine
systems; sharding multiplies them without changing them.  The router
itself holds no simulated substrate: its inherited runtime stays at zero
and :meth:`snapshot` aggregates across shards.

The router is the *data plane* only: routing, dispatch, and the
double-read under a published transfer descriptor.  Everything that
decides or mutates fleet structure — heat-driven planning, range
transfers (boundary moves, splits, merges), the memory-budget pool —
lives in the :class:`~repro.shard.fleet.FleetController` it owns
(DESIGN.md §11).  While a :class:`~repro.shard.fleet.RangeTransfer` is
published, reads of the in-flight range double-read (destination first,
then the source for keys not yet copied), deletes apply to both shards
so the double-read cannot resurrect a deleted key, and scans merge the
source's leftovers with destination priority.  Transfer and heat
bookkeeping run between shard calls, never inside one.

Dispatch is serial by design.  Each shard's simulated accounts are the
same whichever host thread runs its sub-batch, so OS threads could only
buy wall-clock overlap, and under the GIL they cost more than they buy
(DESIGN.md §8).
"""

from __future__ import annotations

from heapq import merge as heapq_merge
from operator import itemgetter
from typing import Any, Iterable, Optional

from repro.shard.config import BudgetConfig, RebalanceConfig
from repro.shard.fleet import FleetController, RangeTransfer
from repro.shard.heat import ShardHeat
from repro.shard.partition import Partitioner, make_partitioner
from repro.sim.effects import charges
from repro.systems.base import KVSystem, Snapshot, limit_error

__all__ = ["ShardRouter"]


class ShardRouter(KVSystem):
    """Partitioned serving layer over ``shards`` independent engines.

    ``memory_limit_bytes`` is the *total* budget; each shard receives an
    equal slice, so shard counts are compared at constant total memory.
    ``workers`` only accepts ``0`` or ``1``: batches are always
    dispatched serially, and a larger value raises.
    """

    name = "Sharded"

    def __init__(
        self,
        base_system: str = "ART-LSM",
        shards: int = 4,
        memory_limit_bytes: int = 1 << 20,
        *,
        partitioner: str | Partitioner = "hash",
        key_space: int = 1 << 40,
        workers: int = 0,
        page_size: int = 4096,
        debug_checks: bool | None = None,
        rebalance: RebalanceConfig | str | bool | None = None,
        budget: BudgetConfig | str | bool | None = None,
        **system_kwargs: Any,
    ) -> None:
        # The inherited runtime is dormant bookkeeping only: the router
        # charges nothing itself; every simulated account lives on a shard.
        super().__init__()
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if key_space < shards:
            # Whatever the placement, fewer keys than shards leaves a shard
            # that can own none.
            raise ValueError(f"key_space must be >= shards, got {key_space} < {shards}")
        if workers > 1:
            raise ValueError(
                f"workers={workers}: shard batches are dispatched serially, "
                "so workers must be 0 or 1"
            )
        self.base_system = base_system
        self.partitioner: Partitioner = (
            make_partitioner(partitioner, shards, key_space)
            if isinstance(partitioner, str)
            else partitioner
        )
        if self.partitioner.shards != shards:
            raise ValueError(
                f"partitioner covers {self.partitioner.shards} shards, "
                f"router was asked for {shards}"
            )
        if debug_checks is None:
            from repro.check.flags import sanitize_enabled

            debug_checks = sanitize_enabled()
        # Shard construction goes through the factory; splits rebuild
        # engines with the exact same recipe, so the arguments are kept.
        self._shard_recipe: dict[str, Any] = dict(
            page_size=page_size, debug_checks=debug_checks, **system_kwargs
        )
        per_shard = max(1, memory_limit_bytes // shards)
        self.shards: list[KVSystem] = [
            self.build_shard(per_shard) for __ in range(shards)
        ]
        self.name = f"Sharded-{base_system}x{shards}"
        #: the published transfer descriptor: set by the controller
        #: before it swaps the routing table, cleared when the range is
        #: drained.  The data path reads it, never writes it.
        self.transfer: RangeTransfer | None = None
        #: accounts of engines retired by merges, so :meth:`snapshot`
        #: never goes backwards when a shard leaves the fleet.
        self.retired = Snapshot(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        self.fleet = FleetController(
            self,
            per_shard,
            2 * page_size,
            RebalanceConfig.coerce(rebalance),
            BudgetConfig.coerce(budget),
        )
        #: foreground-only load ledger the data path feeds and the
        #: controller reads; None on a static fleet.
        self.heat: ShardHeat | None = self.fleet.heat
        self.sanitizer: Optional[Any] = None
        if debug_checks:
            from repro.check.sanitizer import ShardSanitizer

            self.sanitizer = ShardSanitizer(self)

    def build_shard(self, memory_limit_bytes: int) -> KVSystem:
        """Build one shard engine from the stored construction recipe."""
        # Deferred import: the factory registers this class by name, so a
        # module-level import either way would be circular.
        from repro.systems.factory import build_system

        return build_system(
            self.base_system,
            memory_limit_bytes=memory_limit_bytes,
            **self._shard_recipe,
        )

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    # ------------------------------------------------------------------
    # single operations: route to the owning shard; while a transfer is
    # in flight the in-flight range double-reads (dst first, then src)
    # and deletes on both shards (so the double-read cannot resurrect)
    # ------------------------------------------------------------------
    def _after_single(self, sid: int, key: int) -> None:
        """Foreground bookkeeping after one routed operation."""
        if self.heat is not None:
            self.heat.note(sid, key)
            self.runtime.scheduler.tick(1)
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def insert(self, key: int, value: bytes) -> None:
        sid = self.partitioner.shard_of(key)
        self.shards[sid].insert(key, value)
        self._after_single(sid, key)

    # cpu_charge '+' covers the deliberate double read during a live
    # transfer: a dst-shard miss inside the in-flight range retries on
    # the src shard, charging a second full read (DESIGN.md §11).
    @charges("cpu_charge+", "disk_read*", "disk_write*")
    def read(self, key: int) -> Optional[bytes]:
        sid = self.partitioner.shard_of(key)
        value = self.shards[sid].read(key)
        if value is None:
            transfer = self.transfer
            if transfer is not None and sid == transfer.dst and transfer.covers(key):
                value = self.shards[transfer.src].read(key)
        self._after_single(sid, key)
        return value

    def delete(self, key: int) -> bool:
        sid = self.partitioner.shard_of(key)
        present = self.shards[sid].delete(key)
        transfer = self.transfer
        if transfer is not None and sid == transfer.dst and transfer.covers(key):
            present = self.shards[transfer.src].delete(key) or present
        self._after_single(sid, key)
        return present

    # ------------------------------------------------------------------
    # batched operations: partition once, one call per non-empty shard
    # ------------------------------------------------------------------
    def _after_batch(self, sizes: list[int]) -> None:
        """Foreground bookkeeping after one batched dispatch."""
        total = sum(sizes)
        if self.heat is not None:
            self.heat.note_batch(sizes)
            self.runtime.scheduler.tick(total)
        if self.sanitizer is not None:
            self.sanitizer.after_batch(total)

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        for shard, batch in zip(self.shards, batches, strict=True):
            if batch:
                shard.put_many(batch, value)
        self._after_batch([len(batch) for batch in batches])

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        key_list = list(keys)
        batches, positions = self.partitioner.split_indexed(key_list)
        # Scatter each shard's results back to their batch positions.
        out: list[Optional[bytes]] = [None] * len(key_list)
        for shard, batch, pos in zip(self.shards, batches, positions, strict=True):
            if batch:
                for i, value in zip(pos, shard.get_many(batch), strict=True):
                    out[i] = value
        transfer = self.transfer
        if transfer is not None:
            self._backfill_in_flight(key_list, out, transfer)
        self._after_batch([len(batch) for batch in batches])
        return out

    def _backfill_in_flight(
        self,
        keys: list[int],
        out: list[Optional[bytes]],
        transfer: RangeTransfer,
    ) -> None:
        """Second read of in-flight misses against the transfer source.

        Runs after every shard answered its sub-batch: keys in the
        in-flight range route to the destination, but ones not yet
        copied still live on the source.
        """
        covers = transfer.covers
        missing = [
            i
            for i, (key, value) in enumerate(zip(keys, out))
            if value is None and covers(key)
        ]
        if not missing:
            return
        src_values = self.shards[transfer.src].get_many([keys[i] for i in missing])
        for i, value in zip(missing, src_values, strict=True):
            out[i] = value

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        key_list = list(keys)
        batches, positions = self.partitioner.split_indexed(key_list)
        out: list[bool] = [False] * len(key_list)
        for shard, batch, pos in zip(self.shards, batches, positions, strict=True):
            if batch:
                for i, flag in zip(pos, shard.delete_many(batch), strict=True):
                    out[i] = flag
        transfer = self.transfer
        if transfer is not None:
            # Deletes of the in-flight range must reach the source copy
            # too, or the double-read would resurrect the key.
            covers = transfer.covers
            in_flight = [i for i, key in enumerate(key_list) if covers(key)]
            if in_flight:
                src_flags = self.shards[transfer.src].delete_many(
                    [key_list[i] for i in in_flight]
                )
                for i, flag in zip(in_flight, src_flags, strict=True):
                    out[i] = out[i] or flag
        self._after_batch([len(batch) for batch in batches])
        return out

    # ------------------------------------------------------------------
    # range scans: per-shard scans, k-way merge
    # ------------------------------------------------------------------
    def scan(self, key: int, count: int) -> list[tuple[bytes, bytes]]:
        transfer = self.transfer
        if transfer is not None:
            result = self._scan_migrating(key, count, transfer)
            if self.sanitizer is not None:
                self.sanitizer.after_op()
            return result
        shards = self.shards
        consult = self.partitioner.scan_shard_ids(key)
        if self.partitioner.ordered:
            # Contiguous placement: shard id order is key order, so walk
            # forward and stop as soon as the scan is satisfied.
            out: list[tuple[bytes, bytes]] = []
            for sid in consult:
                out.extend(shards[sid].scan(key, count - len(out)))
                if len(out) >= count:
                    break
            result = out[:count]
        else:
            per_shard = [shards[sid].scan(key, count) for sid in consult]
            merged = heapq_merge(*per_shard, key=itemgetter(0))
            result = [pair for pair, __ in zip(merged, range(count))]
        if self.sanitizer is not None:
            self.sanitizer.after_op()
        return result

    def _scan_migrating(
        self, key: int, count: int, transfer: RangeTransfer
    ) -> list[tuple[bytes, bytes]]:
        """Range scan while a transfer is in flight.

        The in-flight range is double-resident: un-copied keys live only
        on the source, and a key freshly written to the destination may
        still have a stale twin on the source.  The early-exit walk is
        therefore unsound mid-transfer; instead every consulted shard
        (plus the source, which physically holds in-flight keys the
        routing table no longer maps to it) is scanned and merged with
        destination priority — the source stream is folded in first so
        any other shard's entry for the same key overwrites it.
        """
        shards = self.shards
        consult = self.partitioner.scan_shard_ids(key)
        others = [sid for sid in consult if sid != transfer.src]
        merged: dict[bytes, bytes] = dict(shards[transfer.src].scan(key, count))
        streams = [shards[sid].scan(key, count) for sid in others]
        for pairs in streams:
            merged.update(pairs)
        return [(k, merged[k]) for k in sorted(merged)[:count]]

    # ------------------------------------------------------------------
    # control-plane seams (serving harness / tests)
    # ------------------------------------------------------------------
    def note_heat(
        self, sid: int, key: int, service_ns: float = 0.0, queue_ns: float = 0.0
    ) -> None:
        """Feed externally measured load into the heat ledger.

        The serving harness drives shard engines directly (it owns the
        queueing model), so it reports per-request service and queueing
        time here instead of through the router's own op hooks.
        """
        if self.heat is not None:
            self.heat.note(sid, key, service_ns, queue_ns)

    def maintenance_tick(self, ops: int = 1) -> None:
        """Advance the router's background pacing clock by ``ops``.

        The controller's paced tasks (plan, drain, budget) run when
        their intervals elapse.  Foreground-only, like every router
        maintenance seam.
        """
        self.runtime.scheduler.tick(ops)

    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Grow or shrink the *total* budget pool, preserving ratios."""
        if memory_limit_bytes < 1:
            raise limit_error(memory_limit_bytes)
        self.fleet.resize_pool(memory_limit_bytes)

    # ------------------------------------------------------------------
    # lifecycle / accounting
    # ------------------------------------------------------------------
    def flush(self) -> None:
        for shard in self.shards:
            shard.flush()

    def shard_snapshots(self) -> list[Snapshot]:
        return [shard.snapshot() for shard in self.shards]

    def snapshot(self) -> Snapshot:
        """Aggregate of all shard accounts, retired engines included.

        Summed CPU/disk time reads as *serial* elapsed time; concurrent
        serving derives elapsed time from the per-shard snapshots instead
        (the slowest shard bounds the makespan — see ``repro.bench.serve``).
        """
        return sum((shard.snapshot() for shard in self.shards), self.retired)

    @property
    def memory_bytes(self) -> int:
        return sum(shard.memory_bytes for shard in self.shards)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardRouter({self.base_system!r}, shards={self.num_shards}, "
            f"partitioner={type(self.partitioner).__name__})"
        )

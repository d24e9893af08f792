"""Deliberately racy :class:`ShardRouter` variants — the negative fixtures.

Each router here violates the shard dispatch ownership contract in
exactly one way, and each violation is caught by BOTH enforcement
layers on the very same source:

* statically, the corresponding RL2xx rule flags this file when it is fed
  to the RL2xx pass (:func:`repro.check.rules.run`) under a ``shard/``
  rel path (the tests do that — this file never ships in ``src``);
* dynamically, running the router in debug mode trips the
  :class:`~repro.check.sanitizer.OwnershipSanitizer` ownership claims or
  the ``@shared_readonly`` write guard.

The clean variants at the bottom prove each rule's negative space: they
exercise the same shapes correctly and must produce no findings and no
runtime errors.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Optional

from repro.shard.router import ShardRouter
from repro.systems.base import KVSystem


class CrossShardRouter(ShardRouter):
    """RL202: every thunk is built over ``shards[0]`` — all dispatched
    batches land on one engine while claiming distinct shard ids."""

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        work = [
            partial(shards[0].put_many, batches[sid], value) for sid in dispatched
        ]
        self._dispatch(dispatched, work)


class CrossShardDiskRouter(ShardRouter):
    """RL202 on the disk alone: every thunk writes to its own shard but
    also takes ``shards[0]`` as scratch space and touches only that
    engine's ``SimDisk`` — never its clock or its stats bus."""

    #: which ``SimDisk`` call the thunk makes on the scratch engine.
    touch = "allocate"

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        # One scratch blob per thunk, written on the foreground outside
        # any dispatch: legal.
        scratch_disk = shards[0].disk
        offsets = [scratch_disk.allocate(len(value)) for __ in shards]
        for offset in offsets:
            scratch_disk.write(offset, value)
        work = [
            partial(
                self._put_spilling, shards[sid], shards[0], offsets[sid], batches[sid], value
            )
            for sid in dispatched
        ]
        self._dispatch(dispatched, work)

    def _put_spilling(
        self, shard: KVSystem, scratch: KVSystem, offset: int, batch: list[int], value: bytes
    ) -> None:
        shard.put_many(batch, value)
        disk = scratch.disk
        if self.touch == "allocate":
            disk.allocate(len(value))
        elif self.touch == "write":
            disk.write(offset, value)
        elif self.touch == "read":
            disk.read(offset)
        else:
            disk.free(offset)


class SharedStatsRouter(ShardRouter):
    """RL201: the dispatched thunk is a bound router method that bumps the
    router's own stats bus — foreground substrate mutated off-thread."""

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        key_list = list(keys)
        batches, positions = self.partitioner.split_indexed(key_list)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        work = [
            partial(self._get_counted, shards[sid], batches[sid])
            for sid in dispatched
        ]
        per_shard_values = self._dispatch(dispatched, work)
        out: list[Optional[bytes]] = [None] * len(key_list)
        for sid, values in zip(dispatched, per_shard_values, strict=True):
            for i, item in zip(positions[sid], values, strict=True):
                out[i] = item
        return out

    def _get_counted(self, shard: KVSystem, batch: list[int]) -> list[Optional[bytes]]:
        self.runtime.stats.bump("router_gets", len(batch))
        return shard.get_many(batch)


class RebalancingRouter(ShardRouter):
    """RL203: the dispatched thunk writes the shared ``@shared_readonly``
    partitioner between partition and scatter."""

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        work = [
            partial(self._put_tracked, sid, shards[sid], batches[sid], value)
            for sid in dispatched
        ]
        self._dispatch(dispatched, work)

    def _put_tracked(
        self, sid: int, shard: KVSystem, batch: list[int], value: bytes
    ) -> None:
        self.partitioner.hot_shard = sid  # type: ignore[attr-defined]
        shard.put_many(batch, value)


class MidDispatchResharder(ShardRouter):
    """RL203 at the migration seam: a dispatched thunk performs the
    routing-table swap itself — writing the shared partitioner's
    boundary tuple while the scatter it is part of is still in flight,
    so sibling thunks may route against either table."""

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        work = [
            partial(self._put_resharding, sid, shards[sid], batches[sid], value)
            for sid in dispatched
        ]
        self._dispatch(dispatched, work)

    def _put_resharding(
        self, sid: int, shard: KVSystem, batch: list[int], value: bytes
    ) -> None:
        shard.put_many(batch, value)
        if sid == 0 and hasattr(self.partitioner, "boundaries"):
            bounds = self.partitioner.boundaries  # type: ignore[attr-defined]
            shifted = (bounds[0], bounds[1] + 1, *bounds[2:])
            self.partitioner.boundaries = shifted  # type: ignore[attr-defined]


class BarrierBypassRouter(ShardRouter):
    """RL204: dispatches straight to the executor and joins futures by
    hand — side-stepping the pool.run scatter barrier (and the ownership
    claims that ride on it)."""

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        futures = [
            self.pool._executor.submit(shards[sid].put_many, batch, value)  # type: ignore[union-attr]
            for sid, batch in enumerate(batches)
            if batch
        ]
        for future in futures:
            future.result()


# ----------------------------------------------------------------------
# clean variants: same shapes, contract respected — zero findings
# ----------------------------------------------------------------------


class CleanCountingRouter(ShardRouter):
    """Clean RL201/RL202 counterpart: the bound-method thunk touches only
    the engine it was handed; shard indexes stay distinct."""

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        key_list = list(keys)
        batches, positions = self.partitioner.split_indexed(key_list)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        work = [
            partial(self._get_plain, shards[sid], batches[sid]) for sid in dispatched
        ]
        per_shard_values = self._dispatch(dispatched, work)
        out: list[Optional[bytes]] = [None] * len(key_list)
        for sid, values in zip(dispatched, per_shard_values, strict=True):
            for i, item in zip(positions[sid], values, strict=True):
                out[i] = item
        return out

    def _get_plain(self, shard: KVSystem, batch: list[int]) -> list[Optional[bytes]]:
        return shard.get_many(batch)


class CleanMigrationRouter(ShardRouter):
    """Clean counterpart of :class:`MidDispatchResharder`: the transfer
    commit point — descriptor publish plus boundary swap — runs on the
    foreground *between* dispatches, through the fleet controller's one
    ``begin``; dispatched thunks only ever read the routing table."""

    def put_then_reshard(self, keys: list[int], value: bytes, split: int) -> None:
        self.put_many(keys, value)  # a full scatter/gather completes first
        self.fleet.begin(0, 1, split)
        self.put_many(keys, value)  # routed against the swapped table


class CleanRetuneRouter(ShardRouter):
    """Clean RL203 counterpart: thunks only *read* the shared partitioner;
    the foreground may reconfigure it outside any dispatch."""

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        batches = self.partitioner.split(keys)
        shards = self.shards
        dispatched = [sid for sid, batch in enumerate(batches) if batch]
        work = [
            partial(self._put_routed, shards[sid], batches[sid], value)
            for sid in dispatched
        ]
        self._dispatch(dispatched, work)

    def _put_routed(self, shard: KVSystem, batch: list[int], value: bytes) -> None:
        if self.partitioner.shards > 0:  # read of shared state: allowed
            shard.put_many(batch, value)

    def retune(self, hot_shard: int) -> None:
        # Foreground write outside any armed dispatch: allowed.
        self.partitioner.hot_shard = hot_shard  # type: ignore[attr-defined]

"""The serving control plane: one range-transfer primitive, one planner.

:class:`FleetController` owns everything that *decides or mutates* the
structure of a :class:`~repro.shard.router.ShardRouter`'s fleet — the
heat ledger, the planning rounds, the memory-budget pool, and the fleet
event log — and does all of it through one mechanism (DESIGN.md §11):

    hand a key range from one engine to an adjacent one while serving.

A boundary move hands part of a hot shard's range to its neighbour; a
*split* is the same hand-over into a freshly built engine; a *merge*
hands over the whole range and then retires the emptied engine.  All
three are one :class:`RangeTransfer` walking one lifecycle::

    begin   validate -> fund -> publish descriptor -> swap routing table
    drain   insert-if-absent chunks, source cursor advancing  (paced task)
    finish  clear descriptor -> [retire engine, return budget] -> cool down

* **begin** is ownership-transfer-first: the descriptor is visible on
  the router *before* the routing table swaps, so from the swap on
  every operation on the in-flight range routes to the destination and
  the router double-reads the source for keys not copied yet.
* **drain** copies insert-if-absent (a fresher client write that
  already reached the destination is never clobbered by a stale source
  copy), bulk-loading the absent keys with ``put_many`` when the chunk
  shares one value — the common serving case — and deletes the chunk
  from the source.
* **finish** needs no second table swap because ownership moved up
  front.  A retiring source kept a one-key sliver so the boundary table
  stayed strictly increasing mid-drain; the same drain step folds it,
  then the engine leaves the fleet and its budget returns to the pool.

Three paced tasks on the router's (otherwise dormant) scheduler drive
it: ``rebalance`` (:meth:`plan_tick` — inspect heat, maybe begin a
transfer), ``rebalance_drain`` (:meth:`drain_tick`) and ``budget``
(:meth:`budget_tick` — re-split the memory pool by heat).  Planning is
a diffusion step in the spirit of adaptive index cracking: balance the
adjacent pair with the largest load difference by moving half of it
across their boundary, so repeated rounds cascade load across the fleet
without ever overshooting.

Budgets are one conserved pool (``sum(budgets) == total`` always): the
equal split is the opening book, :meth:`budget_tick` re-partitions it
proportionally to observed load through every shard's
``set_memory_limit`` seam — so cache contents survive and shrinks evict
through the policy — and splits and merges fund and return slices of
it.  A per-shard floor and a hysteresis band keep budgets from
thrashing on measurement noise (the paper's two-watermark argument,
Section II-A, applied fleet-wide).

Every step runs between the router's shard calls (scheduler ticks are
issued by its verbs after the shards answered), never inside one.
Transfer work charges the *shards'* simulated clocks — moving
data competes with serving on the two engines involved, which is
exactly the cost the skewed-serving benchmark accounts for.  Every
input is deterministic (heat is foreground-only, op streams are
seeded), so every decision is byte-reproducible; with rebalancing and
budgets off no task is registered and no account changes.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.art.keys import decode_int
from repro.core.membudget import proportional_split
from repro.shard.config import BudgetConfig, RebalanceConfig
from repro.shard.heat import ShardHeat
from repro.shard.partition import WeightedRangePartitioner

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.shard.router import ShardRouter

__all__ = ["FleetController", "RangeTransfer"]


class RangeTransfer:
    """One in-flight hand-over of ``[lo, hi)`` between adjacent shards.

    While published on the router the range routes to ``dst`` (the
    table already swapped) and un-copied keys still physically live on
    ``src``; ``cursor`` is the drain frontier — every source key below
    it has been moved.  ``retire`` says the source leaves the fleet
    when the drain completes (the transfer is a merge).
    """

    __slots__ = ("src", "dst", "lo", "hi", "cursor", "keys_moved", "retire")

    def __init__(self, src: int, dst: int, lo: int, hi: int, retire: bool = False) -> None:
        if lo >= hi:
            raise ValueError(f"empty transfer range [{lo}, {hi})")
        if abs(src - dst) != 1:
            raise ValueError(f"transfer must be between adjacent shards, got {src}->{dst}")
        self.src = src
        self.dst = dst
        self.lo = lo
        self.hi = hi
        self.cursor = lo
        self.keys_moved = 0
        self.retire = retire

    def covers(self, key: int) -> bool:
        return self.lo <= key < self.hi

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RangeTransfer({self.src}->{self.dst}, [{self.lo}, {self.hi}), "
            f"cursor={self.cursor}, moved={self.keys_moved}, retire={self.retire})"
        )


class FleetController:
    """Planning, transfers, budgets and fleet events for one router.

    Always present on a router (the budget pool and forced transfers
    work without any config); ``rebalance`` / ``budget`` only decide
    which paced tasks are registered.  With ``rebalance`` off the
    default :class:`RebalanceConfig` still sizes the drain chunk and
    the post-transfer cooldown.
    """

    def __init__(
        self,
        router: "ShardRouter",
        per_shard_bytes: int,
        floor_bytes: int,
        rebalance: RebalanceConfig | None,
        budget: BudgetConfig | None,
    ) -> None:
        self.router = router
        self.config = rebalance if rebalance is not None else RebalanceConfig()
        self.budget_config = budget
        shards = len(router.shards)
        #: budget pool: ``sum(budgets) == total`` always; ``floor`` is
        #: the structural per-shard minimum (two buffer-pool pages, the
        #: smallest budget every registered system can be resized to).
        self.budgets: list[int] = [per_shard_bytes] * shards
        self.total = per_shard_bytes * shards
        self.floor = floor_bytes
        #: structural fleet changes since last drained by the harness:
        #: ("split", sid) after shard ``sid`` split (new shard at
        #: ``sid + 1``), ("merge", sid) after shard ``sid`` retired into
        #: ``sid - 1``.  Callers tracking per-shard state pop these.
        self.events: list[tuple[str, int]] = []
        self.heat: ShardHeat | None = None
        self.migrations_started = 0
        self.migrations_completed = 0
        self.keys_moved = 0
        self.resplits = 0
        self._published_ops = [0] * shards
        self._cooldown = 0
        self._pending: tuple[object, ...] | None = None
        # With no planner registered the budget task is the only heat
        # consumer and therefore owns the per-round decay.
        self._budget_decays = rebalance is None
        if rebalance is not None or budget is not None:
            self.heat = ShardHeat(shards)
        register = router.runtime.scheduler.register
        if rebalance is not None:
            if not isinstance(router.partitioner, WeightedRangePartitioner):
                raise ValueError(
                    "rebalancing needs movable range boundaries; pass "
                    "partitioner='weighted' (got "
                    f"{type(router.partitioner).__name__})"
                )
            register(
                "rebalance",
                self.plan_tick,
                pacing_interval_ops=rebalance.interval_ops,
                periodic=True,
            )
            # Draining paces much tighter than planning: while a range
            # is in flight its hot keys double-read and couple two
            # engines, so the window must close in many small steps.
            register(
                "rebalance_drain",
                self.drain_tick,
                pacing_interval_ops=rebalance.drain_interval_ops,
                periodic=True,
            )
        if budget is not None:
            register(
                "budget",
                self.budget_tick,
                pacing_interval_ops=budget.interval_ops,
                periodic=True,
            )

    # ------------------------------------------------------------------
    # the one range-transfer state machine: begin -> drain -> finish
    # ------------------------------------------------------------------
    def begin(self, src: int, dst: int, key: int | None = None, *, spawn: bool = False) -> None:
        """Start handing part of shard ``src``'s range to adjacent ``dst``.

        ``key`` cuts the source range; the side facing ``dst`` moves
        (a boundary move).  ``spawn=True`` first builds a fresh engine
        at ``dst == src + 1``, funded with half the source's budget, to
        receive it (a split).  ``key=None`` hands over the whole range
        to the left neighbour, and the emptied source retires when the
        drain completes (a merge).
        """
        router = self.router
        partitioner = router.partitioner
        if not isinstance(partitioner, WeightedRangePartitioner):
            raise ValueError("range transfers need a weighted range partitioner")
        if router.transfer is not None:
            raise RuntimeError("another range transfer is still in flight")
        shards = router.shards
        n = len(shards)
        retire = key is None
        if retire and not (0 < src < n and dst == src - 1):
            raise ValueError(
                f"merge retires a shard into its left neighbour; "
                f"src must be in [1, {n}), got {src}->{dst}"
            )
        if not 0 <= src < n or (dst != src + 1 if spawn else not 0 <= dst < n):
            raise ValueError(
                f"transfer {src}->{dst} does not fit a fleet of {n} shards "
                "(spawn builds dst at src + 1)"
            )
        lo, hi = partitioner.shard_range(src)
        if key is None:
            if hi - lo < 2:
                # Single-key shard: nothing to drain in bulk, fold directly.
                self._finish(RangeTransfer(src, dst, lo, hi, retire=True))
                return
            # The last key stays behind as a sliver so the boundary table
            # remains strictly increasing mid-drain; finish folds it in.
            key = hi - 1
        if not lo < key < hi:
            raise ValueError(
                f"cut key {key} outside shard {src}'s open range ({lo}, {hi})"
            )
        transfer = (
            RangeTransfer(src, dst, key, hi, retire)
            if dst > src
            else RangeTransfer(src, dst, lo, key, retire)
        )
        if spawn:
            budgets = self.budgets
            if budgets[src] < 2 * self.floor:
                raise ValueError(
                    f"shard {src} budget {budgets[src]} cannot fund two shards "
                    f"of >= {self.floor} bytes"
                )
            give = budgets[src] // 2
            shards.insert(dst, router.build_shard(give))
            budgets[src] -= give
            budgets.insert(dst, give)
            shards[src].set_memory_limit(budgets[src])
        # Commit point: the descriptor is visible before the routing
        # table swaps, so no operation can route to dst without the
        # double-read window already being in place.
        router.transfer = transfer
        if spawn:
            partitioner.split_shard(src, key)
            self._fleet_changed("split", src)
        else:
            partitioner.move_boundary(max(src, dst), key)

    def drain_tick(self) -> None:
        """One drain round: move a chunk of the active transfer, if any."""
        transfer = self.router.transfer
        if transfer is not None and self._drain(transfer, self.config.chunk_keys):
            self._finish(transfer)

    def _drain(self, transfer: RangeTransfer, chunk: int) -> bool:
        """Move up to ``chunk`` keys from ``transfer.cursor`` on; True once
        the source holds nothing more below ``transfer.hi``."""
        shards = self.router.shards
        src = shards[transfer.src]
        dst = shards[transfer.dst]
        pairs = src.scan(transfer.cursor, chunk)
        decoded = [(decode_int(key_bytes), value) for key_bytes, value in pairs]
        in_range = [(key, value) for key, value in decoded if key < transfer.hi]
        if in_range:
            keys = [key for key, __ in in_range]
            # Insert-if-absent: a client write that already reached dst
            # is fresher than the source copy and must win.
            present = dst.get_many(keys)
            missing = [pair for pair, value in zip(in_range, present) if value is None]
            if missing:
                values = {value for __, value in missing}
                if len(values) == 1:
                    # One distinct value: re-ingest through the sorted
                    # bulk path (scan returns key order).
                    dst.put_many([key for key, __ in missing], values.pop())
                else:
                    insert = dst.insert
                    for key, value in missing:
                        insert(key, value)
            src.delete_many(keys)
            transfer.cursor = keys[-1] + 1
            transfer.keys_moved += len(keys)
            self.keys_moved += len(keys)
            self.router.runtime.stats.bump("rebalance_keys_moved", len(keys))
        return len(pairs) < chunk or len(in_range) < len(decoded)

    def _finish(self, transfer: RangeTransfer) -> None:
        """Complete a drained transfer; retire the source if it asked to."""
        router = self.router
        router.transfer = None
        self.migrations_completed += 1
        router.runtime.stats.bump("rebalance_migrations_completed")
        if transfer.retire:
            partitioner = router.partitioner
            assert isinstance(partitioner, WeightedRangePartitioner)
            # Fold whatever range the source still owns (the sliver)
            # with the same drain step, then drop the boundary and the
            # engine; its accounts and budget stay with the fleet.
            transfer.cursor, transfer.hi = partitioner.shard_range(transfer.src)
            self._drain(transfer, transfer.hi - transfer.cursor)
            partitioner.merge_shards(transfer.src)
            router.retired += router.shards.pop(transfer.src).snapshot()
            self.budgets[transfer.dst] += self.budgets.pop(transfer.src)
            router.shards[transfer.dst].set_memory_limit(self.budgets[transfer.dst])
            self._fleet_changed("merge", transfer.src)
        # The heat ledger described the pre-transfer placement; measure
        # the new one from scratch before deciding again.  The cooldown
        # is how long it is measured: without it, stale heat ping-pongs
        # ranges back and forth.
        if self.heat is not None:
            self.heat.reset()
        self._cooldown = self.config.cooldown_rounds
        self._pending = None

    def _fleet_changed(self, kind: str, sid: int) -> None:
        """Re-base every per-shard ledger after a split or merge.

        Shard ids shift, so the heat ledger (and the stats-bus
        publisher's seen counts with it) restarts from zero — a stale
        count would suppress or double-publish the next delta.
        """
        router = self.router
        shards = len(router.shards)
        router.name = f"Sharded-{router.base_system}x{shards}"
        if self.heat is not None:
            self.heat.resize(shards)
        self._published_ops = [0] * shards
        self.events.append((kind, sid))
        router.runtime.stats.bump(f"fleet_{kind}s")

    # ------------------------------------------------------------------
    # choosing what to transfer (planner and serving harness alike)
    # ------------------------------------------------------------------
    def _cut(self, sid: int, quantile: float) -> int | None:
        """Key cutting shard ``sid``'s range with ``quantile`` of its
        observed load below it; None when the range holds a single key.

        The heat sample ring is op-weighted, so the cut is a busy-time
        quantile; without samples the range midpoint stands in.
        """
        partitioner = self.router.partitioner
        assert isinstance(partitioner, WeightedRangePartitioner)
        lo, hi = partitioner.shard_range(sid)
        if hi - lo < 2:
            return None
        key = self.heat.split_key(sid, quantile) if self.heat is not None else None
        if key is None:
            key = (lo + hi) // 2
        return min(max(key, lo + 1), hi - 1)

    def _split_plan(self, weights: Sequence[float]) -> tuple[int, int] | None:
        """(heaviest shard, its load-median key), or None when its range
        or budget cannot fund two shards at the structural floor."""
        hot = max(range(len(weights)), key=weights.__getitem__)
        if self.budgets[hot] < 2 * self.floor:
            return None
        key = self._cut(hot, 0.5)
        return None if key is None else (hot, key)

    def split_heaviest(self, weights: Sequence[float]) -> bool:
        """Split the heaviest shard at its load median: grow the fleet.

        Each half inherits roughly half the observed load; the upper
        half drains into a freshly built engine.  False when the shard
        cannot be split (one-key range, or budget under two floors).
        """
        plan = self._split_plan(weights)
        if plan is None:
            return False
        self.begin(plan[0], plan[0] + 1, plan[1], spawn=True)
        return True

    def merge_lightest(self, weights: Sequence[float]) -> bool:
        """Retire the right shard of the lightest adjacent pair into the
        left one: shrink the fleet.  False on a single-shard fleet."""
        if len(weights) < 2:
            return False
        pair = min(range(len(weights) - 1), key=lambda sid: weights[sid] + weights[sid + 1])
        self.begin(pair + 1, pair)
        return True

    # ------------------------------------------------------------------
    # the planner
    # ------------------------------------------------------------------
    def plan_tick(self) -> None:
        """One planning round: publish heat, maybe plan, then decay.

        Draining is the separate (much faster paced) :meth:`drain_tick`
        task, so a planning round never does bulk data movement.
        """
        heat = self.heat
        assert heat is not None
        self._publish_heat(heat)
        if self.router.transfer is None:
            if self._cooldown > 0:
                self._cooldown -= 1
            else:
                self._plan(heat.load())
        heat.decay_all()

    def _publish_heat(self, heat: ShardHeat) -> None:
        stats = self.router.runtime.stats
        published = self._published_ops
        totals = list(heat.total_ops)
        for sid, (total, seen) in enumerate(zip(totals, published)):
            if total > seen:
                stats.bump(f"heat_shard{sid}_ops", total - seen)
        self._published_ops = totals
        loads = heat.load()
        mean = sum(loads) / len(loads)
        if mean > 0:
            stats.record_max("heat_imbalance_x100_peak", int(max(loads) / mean * 100))

    def _persists(self, decision: tuple[object, ...]) -> bool:
        """Persistence filter: act only when the same decision also won
        the previous planning round.

        A shard paying transient structure debt (flush/compaction of a
        just-bulk-loaded range) looks hot for a round or two; debt-driven
        transfers are pure churn, and structural ones are the most
        expensive decision the planner makes.
        """
        if self._pending != decision:
            self._pending = decision
            return False
        return True

    def _plan(self, loads: list[float]) -> None:
        config = self.config
        heat = self.heat
        assert heat is not None
        n = len(loads)
        # Merge: when the fleet's *total* decayed load falls below
        # merge_load, fold the lightest adjacent pair.  Checked before
        # the min_load gate: an idle fleet is exactly the one whose
        # total load sits below every other trigger.  A never-used
        # fleet has measured nothing yet and stays as built.
        if (
            config.merge_load > 0.0
            and n > 1
            and sum(heat.total_ops) > 0
            and sum(loads) < config.merge_load
        ):
            pair = min(range(n - 1), key=lambda sid: loads[sid] + loads[sid + 1])
            if self._persists(("merge", pair + 1)):
                self.begin(pair + 1, pair)
            return
        total = sum(loads)
        if total < config.min_load:
            return
        # Split: an *absolute* load trigger.  Unlike the relative
        # threshold below it answers "is the whole fleet too small", so
        # a uniformly loaded fleet keeps growing under pressure where
        # max/mean never budges.
        if 0.0 < config.split_load < max(loads) and config.max_shards > n:
            plan = self._split_plan(loads)
            if plan is not None:
                if self._persists(("split", plan[0])):
                    self.begin(plan[0], plan[0] + 1, plan[1], spawn=True)
                return
        mean = total / n
        # max/mean is bounded by the shard count (one shard carrying
        # everything measures exactly ``shards``), so a ratio sane for a
        # wide fleet is unreachable for a narrow one — at two shards a
        # 2.2x trigger would never fire.  Clamp the effective trigger to
        # halfway between perfectly balanced and the worst case.
        threshold = min(config.threshold, (1 + n) / 2)
        if max(loads) <= threshold * mean:
            return
        if n < 2:  # single shard: nowhere to shed load
            return
        # Diffusion step: balance the adjacent pair with the largest load
        # difference by moving half that difference across the shared
        # boundary.  Half the pairwise difference leaves both shards at
        # the pair's average — a step can never overshoot, so there is
        # no ping-pong; the remaining excess keeps flowing downstream
        # pair by pair in later rounds until the fleet is level.  (A
        # shed-the-whole-excess policy deadlocks instead: with one shard
        # holding most of the load, no single move to a neighbour can
        # land under the trigger, yet the neighbour never becomes the
        # hottest shard, so nothing would ever move.)
        diffs = [loads[sid] - loads[sid + 1] for sid in range(n - 1)]
        boundary = max(range(len(diffs)), key=lambda sid: abs(diffs[sid]))
        if diffs[boundary] == 0:
            return
        if diffs[boundary] > 0:
            hot, dst = boundary, boundary + 1
        else:
            hot, dst = boundary + 1, boundary
        if not self._persists(("move", hot, dst)):
            return
        # Keys below the f-quantile carry ~f of the load.  Shedding
        # right takes the top `fraction`, shedding left the bottom
        # `fraction`, of the observed load.
        fraction = (loads[hot] - loads[dst]) / (2.0 * loads[hot])
        key = self._cut(hot, 1.0 - fraction if dst > hot else fraction)
        if key is None:  # nothing left to split
            return
        self.begin(hot, dst, key)
        self.migrations_started += 1
        transfer = self.router.transfer
        assert transfer is not None
        stats = self.router.runtime.stats
        stats.bump("rebalance_migrations_started")
        stats.record_max("rebalance_active_range", transfer.hi - transfer.lo)

    # ------------------------------------------------------------------
    # the budget pool
    # ------------------------------------------------------------------
    def apply_budgets(self, targets: Sequence[int]) -> None:
        """Re-partition the budget pool to ``targets`` (bytes per shard).

        The targets must cover every shard and sum to exactly the pool
        total — budget moves between shards, it is never created or
        destroyed.  Each changed shard is resized through its live
        ``set_memory_limit`` seam, so cache contents survive and shrinks
        evict through the policy.
        """
        shards = self.router.shards
        if len(targets) != len(shards):
            raise ValueError(f"got {len(targets)} budget targets for {len(shards)} shards")
        if sum(targets) != self.total:
            raise ValueError(
                f"budget targets sum to {sum(targets)}, pool holds {self.total}"
            )
        budgets = self.budgets
        for sid, target in enumerate(targets):
            if target < 1:
                raise ValueError(f"shard {sid} budget must be >= 1, got {target}")
            if target != budgets[sid]:
                shards[sid].set_memory_limit(target)
                budgets[sid] = target

    def resize_pool(self, total_bytes: int) -> None:
        """Grow or shrink the *total* pool, preserving current ratios.

        The new total is split proportionally to the budgets the fleet
        holds right now (heat already shaped those), floored at the
        structural per-shard minimum.
        """
        targets = proportional_split(
            total_bytes, [float(b) for b in self.budgets], self.floor
        )
        self.total = total_bytes
        self.apply_budgets(targets)

    def budget_tick(self) -> None:
        """One re-split round: read heat, compute targets, maybe apply.

        Skipped while a transfer is in flight: budgets follow heat, and
        mid-transfer heat describes a placement that is still moving.
        A round applies only when the fleet carries ``min_load`` and
        some shard's target moves by more than ``hysteresis`` of the
        equal share.
        """
        config = self.budget_config
        heat = self.heat
        assert config is not None and heat is not None
        loads = heat.load()
        if self.router.transfer is None and sum(loads) >= config.min_load:
            total = self.total
            equal = total / len(loads)
            floor = max(self.floor, int(equal * config.floor_fraction))
            targets = proportional_split(total, loads, floor)
            drift = max(abs(t - c) for t, c in zip(targets, self.budgets))
            if drift > config.hysteresis * equal:
                self.apply_budgets(targets)
                self.resplits += 1
                stats = self.router.runtime.stats
                stats.bump("budget_resplits")
                stats.record_max("budget_max_shard_bytes", max(targets))
        if self._budget_decays:
            heat.decay_all()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"FleetController(started={self.migrations_started}, "
            f"completed={self.migrations_completed}, moved={self.keys_moved}, "
            f"resplits={self.resplits}, events={len(self.events)})"
        )

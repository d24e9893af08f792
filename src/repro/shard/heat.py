"""Per-shard heat accounting for the elastic resharding layer.

:class:`ShardHeat` is the router's foreground-only load ledger: every
routed operation notes its shard (op count), and the serving harness
additionally notes per-request simulated service time and queueing
delay.  The :class:`~repro.shard.fleet.FleetController` reads the ledger
to detect imbalance, pick the hot shard, and choose a split key; after
each decision round it decays every counter so heat tracks the *recent*
load, not the whole history (DESIGN.md §11).

Heat is mutated only by the router itself, after its shards answered,
never inside a shard call.  Every input is deterministic (op streams
are seeded), so heat, and with it every rebalancing decision, is
byte-reproducible.

Key samples: a fixed-size ring per shard keeps the most recent routed
keys.  The median of the hot shard's ring splits the *observed* load in
half — far faster to converge than bisecting the key range, because a
Zipfian workload concentrates its mass in a tiny key interval.
"""

from __future__ import annotations

__all__ = ["ShardHeat"]


class ShardHeat:
    """Decaying per-shard op/service/queue counters plus key samples."""

    def __init__(self, shards: int, decay: float = 0.5, sample_size: int = 64) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        if not 0.0 <= decay < 1.0:
            raise ValueError(f"decay must be in [0, 1), got {decay}")
        if sample_size < 1:
            raise ValueError(f"sample_size must be >= 1, got {sample_size}")
        self.shards = shards
        self.decay = decay
        self.sample_size = sample_size
        self.ops: list[float] = [0.0] * shards
        self.service_ns: list[float] = [0.0] * shards
        self.queue_ns: list[float] = [0.0] * shards
        #: lifetime op totals (never decayed) — the stats-bus gauges
        #: publish deltas of these, so bus counters only ever grow.
        self.total_ops: list[int] = [0] * shards
        self._samples: list[list[tuple[int, float]]] = [[] for __ in range(shards)]
        self._sample_pos: list[int] = [0] * shards

    # -- recording -------------------------------------------------------
    def note(
        self, sid: int, key: int, service_ns: float = 0.0, queue_ns: float = 0.0
    ) -> None:
        """Record one routed operation on shard ``sid``."""
        self.ops[sid] += 1.0
        self.total_ops[sid] += 1
        if service_ns:
            self.service_ns[sid] += service_ns
        if queue_ns:
            self.queue_ns[sid] += queue_ns
        # Samples carry the op's cost so split keys are quantiles of
        # *busy time*, matching the load metric: on a shard mixing
        # cached (fast) and disk-bound (slow) keys, the op-count and
        # busy-time distributions over the key range differ wildly.
        entry = (key, service_ns if service_ns else 1.0)
        ring = self._samples[sid]
        if len(ring) < self.sample_size:
            ring.append(entry)
        else:
            ring[self._sample_pos[sid] % self.sample_size] = entry
        self._sample_pos[sid] += 1

    def note_batch(self, sizes: list[int]) -> None:
        """Record one batched dispatch: ``sizes[sid]`` ops per shard.

        Batches carry no per-key service attribution (the dispatch is
        the unit of work), so only the op counters move.
        """
        self.ops = [o + s for o, s in zip(self.ops, sizes)]
        self.total_ops = [t + s for t, s in zip(self.total_ops, sizes)]

    # -- reading ----------------------------------------------------------
    def load(self) -> list[float]:
        """Per-shard load metric the rebalancer compares.

        Simulated *busy time* (service_ns) when the serving harness
        reports it, decayed op counts otherwise.  Busy time is the
        metric that matters under heterogeneous service costs: in the
        larger-than-memory regime a shard whose data spills to disk
        serves each op orders of magnitude slower than a cached one, so
        balancing raw op counts would knowingly overload the disk-bound
        shard.  Two safeguards make busy time usable despite transient
        structure debt (a freshly migrated-into shard is momentarily
        expensive): the rebalancer's diffusion step never overshoots,
        and the ledger is reset after every migration so stale heat
        cannot ping-pong a range back.
        """
        if any(self.service_ns):
            return list(self.service_ns)
        return list(self.ops)

    def split_key(self, sid: int, fraction: float = 0.5) -> int | None:
        """Key at the ``fraction``-quantile of ``sid``'s observed load.

        Walks the shard's recent keys in key order, accumulating each
        op's cost, and returns the key where the running total crosses
        ``fraction`` of the ring's load — so the keys *below* the split
        carry that share of the shard's busy time.  The rebalancer uses
        this to shed a precisely sized slice; a blind median split
        overshoots on a hot shard, makes the destination the new
        hottest, and ping-pongs the range straight back.  Returns None
        without samples.
        """
        ring = sorted(self._samples[sid])
        if not ring:
            return None
        target = fraction * sum(weight for __, weight in ring)
        running = 0.0
        for key, weight in ring:
            running += weight
            if running >= target:
                return key
        return ring[-1][0]

    def decay_all(self) -> None:
        """Age every decayed counter by one rebalancer round."""
        factor = self.decay
        self.ops = [o * factor for o in self.ops]
        self.service_ns = [s * factor for s in self.service_ns]
        self.queue_ns = [q * factor for q in self.queue_ns]

    def resize(self, shards: int) -> None:
        """Adopt a new fleet size after a shard split or merge.

        Every counter — decayed *and* lifetime — restarts from zero: the
        old per-index history describes shard identities that no longer
        exist (ids shift on split/merge), so carrying any of it across
        would attribute one shard's past to another.  Publishers of the
        lifetime totals must re-base their seen counts to zero too.
        """
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards
        self.total_ops = [0] * shards
        self.reset()

    def reset(self) -> None:
        """Forget all decayed load and samples (lifetime totals stay).

        Called when a migration completes: pre-migration heat describes
        a placement that no longer exists, so the next imbalance
        decision must measure the new placement from scratch —
        otherwise stale history ping-pongs ranges back and forth.
        """
        shards = self.shards
        self.ops = [0.0] * shards
        self.service_ns = [0.0] * shards
        self.queue_ns = [0.0] * shards
        self._samples = [[] for __ in range(shards)]
        self._sample_pos = [0] * shards

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        rounded = [round(o, 1) for o in self.ops]
        return f"ShardHeat(shards={self.shards}, ops={rounded})"

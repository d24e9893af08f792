"""The IndeXY facade: one extensible index across memory and disk.

Wires together an Index X, an Index Y, the memory budget, the
pre-cleaner, and the release policy into a single ordered key-value index
(Section II-A's architecture).  Data flow:

* **insert** refuses an entry over Index Y's declared limits, then goes
  to Index X (dirty) and advances the engine runtime's background
  scheduler, which paces the pre-cleaning passes; when the high watermark
  is crossed, a release cycle is requested from the scheduler (which runs
  it inline as a synchronous fallback under backpressure) to persist and
  detach the coldest subtrees;
* **get** searches X first (X is the read cache); on a miss it consults Y
  and, on a hit there, inserts the key into X *clean* (its copy in Y
  survives, Section II-D);
* **scan** merges X and Y ranges with X winning on duplicates (X holds the
  freshest version of any key present in both).

All background maintenance — pre-cleaning, release, and whatever the Index
Y registers for itself (LSM compaction, buffer-pool write-back) — runs
through the one :class:`~repro.sim.runtime.BackgroundScheduler` owned by
the :class:`~repro.sim.runtime.EngineRuntime`, so pacing, backpressure,
and per-task accounting are uniform across layers.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Optional

from repro.core.config import IndeXYConfig
from repro.core.interfaces import IndexX, IndexY
from repro.core.membudget import MemoryBudget
from repro.core.precleaner import PreCleaner
from repro.core.release import ReleasePolicy
from repro.sim.effects import charges
from repro.sim.runtime import EngineRuntime

#: counter-update sampling period of Index X's access/insert statistics
#: once tracking starts (Section II-C's overhead control).
SAMPLE_EVERY = 4


class IndeXY:
    """An extensible index integrating Index X (memory) and Index Y (disk)."""

    def __init__(
        self,
        index_x: IndexX,
        index_y: IndexY,
        config: IndeXYConfig,
        runtime: EngineRuntime,
        release_policy: ReleasePolicy | None = None,
        precleaning_enabled: bool = True,
        check_back: bool = True,
        load_on_miss: bool = True,
        debug_checks: bool | None = None,
        debug_check_interval: int = 256,
    ) -> None:
        self.x = index_x
        self.y = index_y
        #: Index Y's entry limits, read once: ``insert`` refuses an entry
        #: over any of them before Index X holds it.
        self._max_key_bytes = index_y.max_key_bytes
        self._max_value_bytes = index_y.max_value_bytes
        self._max_entry_bytes = index_y.max_entry_bytes
        self.config = config
        #: the engine substrate X, Y and this facade all charge.
        self.runtime = runtime
        self.stats = runtime.stats
        self.budget = MemoryBudget(config)
        self.precleaner = PreCleaner(
            index_x,
            index_y,
            config,
            stats=self.stats,
            check_back=check_back,
        )
        self.release_policy = release_policy or ReleasePolicy(
            "density", partition_depth=config.partition_depth
        )
        #: ablation switch: with ``load_on_miss`` off, Y hits are served
        #: from Y every time instead of being cached into X.
        self.load_on_miss = load_on_miss
        self._y_populated = False
        self._clock = runtime.clock

        scheduler = runtime.scheduler
        #: release is the urgent task: unpaced, tiny queue, and the
        #: foreground stalls it causes stay charged to the foreground
        #: clock (the paper's subtree-lock semantics).
        self._release_task = scheduler.register(
            "release",
            self._scheduled_release,
            priority=0,
            backpressure_threshold=1,
        )
        # Pre-cleaning is the paced task: one pass per
        # ``preclean_interval_inserts`` scheduler ticks, exactly the
        # paper's insert-count timer.
        if precleaning_enabled:
            scheduler.register(
                "preclean",
                self._scheduled_preclean,
                priority=20,
                pacing_interval_ops=config.preclean_interval_inserts,
                periodic=True,
            )

        #: invariant sanitizers (``debug_checks=True``): structural sweeps
        #: every ``debug_check_interval`` ops plus checks at the release
        #: and flush hook points; any violation raises
        #: :class:`~repro.check.sanitizer.CheckError`.  Imported lazily so
        #: production runs never load the check package.
        self.sanitizer: Optional[Any] = None
        if debug_checks is None:
            from repro.check.flags import sanitize_enabled

            debug_checks = sanitize_enabled()
        if debug_checks:
            from repro.check.sanitizer import CheckBackAuditor, IndexSanitizer

            self.sanitizer = IndexSanitizer(self, interval=debug_check_interval)
            self.precleaner.auditor = CheckBackAuditor()
            if hasattr(index_x, "on_node_replaced"):
                # Adaptive resizing replaces ART node objects; the auditor
                # tracks C bits by identity and must follow the swap.
                index_x.on_node_replaced = self.precleaner.auditor.note_replaced

    # ------------------------------------------------------------------
    # key-value operations
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: bytes) -> None:
        """Write ``key`` to Index X, dirty.

        Raises ValueError, before anything changes, for an entry over one
        of Index Y's limits: X only buffers writes for Y, and no release
        could ever write that entry there.
        """
        key_bytes = len(key)
        value_bytes = len(value)
        if (
            key_bytes > self._max_key_bytes
            or value_bytes > self._max_value_bytes
            or key_bytes + value_bytes > self._max_entry_bytes
        ):
            raise ValueError(
                f"entry of {key_bytes}-byte key and {value_bytes}-byte value exceeds "
                f"Index Y's limits (key {self._max_key_bytes}, value "
                f"{self._max_value_bytes}, key + value {self._max_entry_bytes} bytes)"
            )
        self.x.insert(key, value, dirty=True)
        self.stats.bump("inserts")
        if self.sanitizer is not None:
            # Un-mark a re-inserted key before any maintenance can run:
            # ``_after_growth`` may fire a release cycle whose sweep
            # samples the no-resurrection invariant, and a key
            # legitimately written again after a delete (e.g. a range
            # migration moving it back) is not a resurrection.
            self.sanitizer.note_insert(key)
        self._after_growth()
        # Background maintenance only matters once unloading is on the
        # horizon: the scheduler's pacing clock starts at the low
        # watermark, so an index that fits in memory never pays for it.
        if self.budget.tracking_started:
            self.runtime.scheduler.tick(1)
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def get(self, key: bytes) -> Optional[bytes]:
        value = self._get(key)
        if self.sanitizer is not None:
            self.sanitizer.after_op()
        return value

    def _get(self, key: bytes) -> Optional[bytes]:
        value = self.x.search(key)
        if value is not None:
            self.stats.bump("x_hits")
            return value
        if not self._y_populated:
            self.stats.bump("misses")
            return None
        value = self.y.get(key)
        if value is None:
            self.stats.bump("misses")
            return None
        self.stats.bump("y_hits")
        if self.load_on_miss:
            # Loaded keys enter X clean: their copy in Y survives, so a
            # later release can drop them without any write-back.
            self.x.insert(key, value, dirty=False)
            self._after_growth()
        return value

    def delete(self, key: bytes) -> bool:
        present_x = self.x.delete(key)
        # Delete-through unconditionally: Y may hold a copy even while
        # ``_y_populated`` is still False (a pre-clean pass can write the
        # key to Y before the flag flips), and a Y-only copy must never
        # resurrect a deleted key via get/scan.
        self.y.delete(key)
        self.stats.bump("deletes")
        if self.sanitizer is not None:
            self.sanitizer.note_delete(key)
            self.sanitizer.after_op()
        return present_x

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Merged range scan; X shadows Y on duplicate keys."""
        if count <= 0:
            return []
        from_x = self.x.scan(start, count)
        if not self._y_populated:
            if self.sanitizer is not None:
                self.sanitizer.after_op()
            return from_x[:count]
        from_y = self.y.scan(start, count)
        self.stats.bump("scans")
        out: list[tuple[bytes, bytes]] = []
        i = j = 0
        while len(out) < count and (i < len(from_x) or j < len(from_y)):
            if j >= len(from_y):
                out.append(from_x[i])
                i += 1
            elif i >= len(from_x):
                out.append(from_y[j])
                j += 1
            elif from_x[i][0] < from_y[j][0]:
                out.append(from_x[i])
                i += 1
            elif from_x[i][0] > from_y[j][0]:
                out.append(from_y[j])
                j += 1
            else:
                out.append(from_x[i])  # X holds the freshest version
                i += 1
                j += 1
        if self.sanitizer is not None:
            self.sanitizer.after_op()
        return out

    # ------------------------------------------------------------------
    # memory management
    # ------------------------------------------------------------------
    def set_memory_limit(self, limit_bytes: int, *, enforce: bool = False) -> None:
        """Adjust the Index X budget at runtime.

        Used when the index shares an overall memory limit with other
        consumers (the paper's TPC-C setup: the 30 GB workload limit minus
        what the other eight tables' resident indexes occupy).

        ``enforce=True`` additionally runs a release cycle right away if
        the resident index already sits over the *new* high watermark —
        the live-shrink semantics the sharded budget rebalancer needs (a
        shard losing budget must actually give the memory back, not wait
        for its next insert).  The default keeps the historical
        lazy behaviour: the new watermarks take effect on the next
        growth, which existing callers (TPC-C refit) rely on.  A limit
        below one byte is rejected by :class:`IndeXYConfig`, unclamped.
        """
        self.config = replace(self.config, memory_limit_bytes=limit_bytes)
        self.budget.config = self.config
        if enforce and self.budget.over_high_watermark(self.x.memory_bytes):
            # Synchronous by design (the caller is giving memory back to a
            # shared pool and must not return until it is released), but
            # routed through the scheduler's inline seam so the work is
            # accounted as an inline maintenance run.
            self.runtime.scheduler.run_inline(self._release_task)

    def _after_growth(self) -> None:
        memory = self.x.memory_bytes
        if self.budget.should_start_tracking(memory):
            self.x.enable_tracking(SAMPLE_EVERY)
            self.stats.bump("tracking_started")
        if self.budget.over_high_watermark(memory):
            self.runtime.scheduler.request(self._release_task)

    def _scheduled_release(self) -> int:
        return self.release_cycle()

    def _scheduled_preclean(self) -> bool:
        cleaned = self.precleaner.run_pass()
        # Flip the Y-populated flag synchronously with the write-back:
        # a delete landing between a pre-clean write and a deferred flag
        # flip must still see Y as live.
        if not self._y_populated and self.stats["preclean_writebacks"]:
            self._y_populated = True
        return cleaned

    def release_cycle(self) -> int:
        """Persist and detach cold subtrees until under the low watermark.

        A subtree being released is locked against user access (Section
        II-B), so any disk time its dirty write-back takes stalls the
        foreground.  That stall is charged to the simulated CPU clock —
        it is the cost pre-cleaning exists to remove: pre-cleaned subtrees
        release with zero write-back and therefore zero stall.

        Returns the number of bytes released.
        """
        memory = self.x.memory_bytes
        target = self.budget.release_target_bytes(memory)
        if target <= 0:
            return 0
        refs = self.release_policy.select(self.x, target)
        released = 0
        for ref in refs:
            batch = list(self.x.iter_dirty_entries(ref.node))
            if batch:
                stall_ns = self._timed_writeback(batch)
                self.stats.bump("release_writebacks")
                self.stats.bump("release_keys_written", len(batch))
                self.stats.bump("release_lock_stall_ns", stall_ns)
            else:
                self.stats.bump("release_clean_drops")
            released += self.x.detach(ref)
        if released:
            self._y_populated = True
        # Fresh density epoch after a release (Section II-C).
        self.x.reset_access_counts()
        self.stats.bump("release_cycles")
        self.stats.bump("released_bytes", released)
        if self.sanitizer is not None:
            self.sanitizer.after_release(released)
        return released

    # cpu_charge here is deliberate although release runs as maintenance:
    # the subtree-lock stall is foreground time by definition (RL303's
    # declared-effect exemption is exactly for this case).
    @charges("cpu_charge*", "bg_charge*", "disk_read*", "disk_write*")
    def _timed_writeback(self, batch: list[tuple[bytes, bytes]]) -> float:
        """Write ``batch`` to Y and charge its disk time as a lock stall.

        The subtree lock blocks foreground access to that key region for
        the duration of the write, so the write's disk time also shows up
        as foreground CPU-side stall on the runtime's clock.
        """
        disk = self.runtime.disk
        busy_before = disk.busy_ns
        self.y.put_batch(batch)
        stall_ns = disk.busy_ns - busy_before
        if stall_ns > 0:
            self._clock.charge_cpu(stall_ns)
        return stall_ns

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        """Total in-memory footprint: Index X plus Y's transfer buffers."""
        return self.x.memory_bytes + self.y.memory_bytes

    def flush(self) -> None:
        """Persist every dirty key to Y (checkpoint / shutdown)."""
        self.runtime.scheduler.drain()
        root = self.x.root_ref().node
        batch = list(self.x.iter_dirty_entries(root))
        if batch:
            self.y.put_batch(batch)
            self._y_populated = True
        self.x.clear_dirty(root)
        if self.sanitizer is not None:
            self.sanitizer.after_flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"IndeXY(x_keys={self.x.key_count}, x_bytes={self.x.memory_bytes}, "
            f"limit={self.config.memory_limit_bytes})"
        )

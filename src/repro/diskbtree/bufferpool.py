"""Buffer pool with swizzled residency, clock eviction, and LeanStore's
most-dirtied-first write-back.

Frames hold decoded page objects (the "swizzled" representation: child page
ids resolve through the pool without re-decoding).  Two mechanisms move
pages out:

* **Eviction on pressure** — a pluggable :class:`~repro.cache.policy.
  CachePolicy` (``clock``, the historical second-chance sweep, by
  default) picks the victim frame; pinned frames are vetoed through the
  policy's ``is_evictable`` hook, and dirty victims are written back
  first.
* **Proactive write-back** — when the dirty fraction of the pool crosses a
  threshold, the frames with the *most dirty entries* are flushed and
  evicted first.  This is LeanStore's policy as described in the paper's
  Figure 10 discussion, and it is exactly what makes small pages churn
  (they saturate with dirty entries quickly, get evicted, and force
  read-modify-writes when their key range is hit again) while large pages
  absorb more inserts per write-back.

The proactive write-back is a maintenance task: the pool requests the
batch flush from the engine runtime's background scheduler (which runs it
inline under backpressure).  Eviction-on-pressure stays on the foreground
path — a faulting access cannot proceed without a free frame.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, replace
from operator import itemgetter

from repro.cache.policy import make_policy
from repro.diskbtree.page import Page, copy_page, decode_page, encode_page
from repro.sim.effects import charges
from repro.sim.runtime import EngineRuntime
from repro.sim.stats import StatCounters


@dataclass(frozen=True)
class BufferPoolConfig:
    """Pool knobs.

    ``capacity_bytes`` counts whole page frames.  ``dirty_fraction`` and
    ``writeback_batch_fraction`` control the proactive flush behaviour.
    ``policy`` names the eviction policy (any name registered with
    :func:`repro.cache.policy.register_policy`).
    """

    capacity_bytes: int
    page_size: int = 4096
    dirty_fraction: float = 0.5
    writeback_batch_fraction: float = 0.1
    policy: str = "clock"


class _Frame:
    __slots__ = ("page", "dirty", "dirty_entries", "pins")

    def __init__(self, page: Page) -> None:
        self.page = page
        self.dirty = False
        self.dirty_entries = 0
        self.pins = 0


class BufferPool:
    """Maps page ids (disk offsets) to resident decoded pages."""

    def __init__(self, runtime: EngineRuntime, config: BufferPoolConfig) -> None:
        if config.capacity_bytes < 2 * config.page_size:
            raise ValueError("buffer pool must hold at least two pages")
        self.disk = runtime.disk
        self.clock = runtime.clock
        self.costs = runtime.costs
        self.config = config
        self.stats = StatCounters()  # component-local counters  # reprolint: allow[RL001]
        self._frames: dict[int, _Frame] = {}
        self._policy = make_policy(config.policy)
        self._policy.set_capacity(config.capacity_bytes)
        self._capacity_frames = config.capacity_bytes // config.page_size
        self._dirty_fraction = config.dirty_fraction
        self._dirty_count = 0  # incremental mirror of per-frame dirty bits
        #: wall-clock-only decode memo: blob -> pristine decoded page,
        #: filled at fault-in misses and at write-back (when the page
        #: object is in hand), oldest use first: a hit moves its entry to
        #: the end and a full memo drops its first.  SimDisk returns the
        #: stored bytes object itself, so the dict lookup runs on a cached
        #: hash.  Serving a ``copy_page`` of the template is value-equal to
        #: decoding the blob, so simulated behaviour is untouched; the cap
        #: just bounds memory.
        self._decoded: OrderedDict[bytes, Page] = OrderedDict()
        self._decoded_cap = 4 * self._capacity_frames
        self._scheduler = runtime.scheduler
        self._writeback_task = self._scheduler.register(
            "pool_writeback",
            self._proactive_writeback_pass,
            priority=15,
            backpressure_threshold=2,
        )

    # ------------------------------------------------------------------
    # page access
    # ------------------------------------------------------------------
    @property
    def frame_count(self) -> int:
        return len(self._frames)

    @property
    def capacity_frames(self) -> int:
        return self._capacity_frames

    @property
    def used_bytes(self) -> int:
        return len(self._frames) * self.config.page_size

    @property
    def policy(self):
        """The live :class:`~repro.cache.policy.CachePolicy` instance."""
        return self._policy

    @property
    def policy_name(self) -> str:
        return self._policy.name

    def is_resident(self, pid: int) -> bool:
        return pid in self._frames

    @charges("cpu_charge*", "disk_read?", "disk_write*")
    def get_page(self, pid: int) -> Page:
        """Return the page, faulting it in from disk on a miss."""
        frame = self._frames.get(pid)
        if frame is not None:
            self._policy.on_hit(pid)
            self.stats.bump("pool_hits")
            return frame.page
        self.stats.bump("pool_misses")
        blob = self.disk.read(pid)
        self.clock.charge_cpu(self.costs.copy_cost(len(blob)))
        template = self._decoded.get(blob)
        if template is None:
            template = decode_page(blob)
            self._memoize(blob, template)
        else:
            self._decoded.move_to_end(blob)
        page = copy_page(template)
        self._admit(pid, page, dirty=False)
        return page

    def new_page(self, page: Page) -> int:
        """Allocate a page id for ``page`` and admit it dirty."""
        pid = self.disk.allocate(self.config.page_size)
        self._admit(pid, page, dirty=True)
        self.stats.bump("pages_allocated")
        return pid

    def mark_dirty(self, pid: int, mutated_entries: int = 1) -> None:
        frame = self._frames[pid]
        if not frame.dirty:
            frame.dirty = True
            self._dirty_count += 1
        frame.dirty_entries += mutated_entries
        self._policy.on_hit(pid)
        self._maybe_proactive_writeback()

    def pin(self, pid: int) -> None:
        self._frames[pid].pins += 1

    def unpin(self, pid: int) -> None:
        self.unpin_path([], pid)

    def unpin_path(self, path: list[tuple[int, int]], leaf_pid: int) -> None:
        """Unpin a descent: the ``(pid, slot)`` pages of ``path``, then the leaf."""
        frames = self._frames
        for pid, __ in (*path, (leaf_pid, 0)):
            frame = frames[pid]
            if frame.pins <= 0:
                raise RuntimeError(f"page {pid} is not pinned")
            frame.pins -= 1

    def resize(self, capacity_bytes: int) -> None:
        """Re-budget the pool, evicting down through the policy.

        The shared resize seam for ``set_memory_limit``: frames leave in
        exactly the order the policy would have chosen under organic
        pressure, and pinned frames are never evicted (the pool stays
        temporarily overcommitted instead, like ``_admit``).
        """
        if capacity_bytes < 2 * self.config.page_size:
            raise ValueError("buffer pool must hold at least two pages")
        self.config = replace(self.config, capacity_bytes=capacity_bytes)
        self._capacity_frames = capacity_bytes // self.config.page_size
        self._decoded_cap = 4 * self._capacity_frames
        self._policy.set_capacity(capacity_bytes)
        while len(self._frames) > self._capacity_frames:
            if not self._evict_one():
                break  # everything pinned: temporarily overcommit

    def hit_counts(self) -> tuple[float, float]:
        """(hits, misses) of page accesses, from the pool's own counters."""
        return self.stats["pool_hits"], self.stats["pool_misses"]

    # ------------------------------------------------------------------
    # eviction / write-back
    # ------------------------------------------------------------------
    def _admit(self, pid: int, page: Page, dirty: bool) -> None:
        while len(self._frames) >= self._capacity_frames:
            if not self._evict_one():
                break  # everything pinned: temporarily overcommit
        frame = _Frame(page)
        frame.dirty = dirty
        if dirty:
            self._dirty_count += 1
        self._frames[pid] = frame
        self._policy.on_insert(pid, self.config.page_size)

    def _is_unpinned(self, pid: int) -> bool:
        return self._frames[pid].pins == 0

    def _evict_one(self) -> bool:
        """Ask the policy for a victim; returns False if everything is pinned."""
        victim = self._policy.evict_candidate(self._is_unpinned)
        if victim is None:
            return False
        self._evict_frame(victim)
        return True

    @charges("cpu_charge?", "disk_write?")
    def _evict_frame(self, pid: int) -> None:
        frame = self._frames[pid]
        if frame.dirty:
            self._write_back(pid, frame)
        del self._frames[pid]
        self._policy.on_remove(pid)
        self.stats.bump("evictions")

    @charges("cpu_charge?", "disk_write?")
    def _write_back(self, pid: int, frame: _Frame) -> None:
        blob = encode_page(frame.page)
        if len(blob) > self.config.page_size:
            raise RuntimeError(
                f"page {pid} overflows its {self.config.page_size}-byte frame "
                f"({len(blob)} bytes); the tree must split before write-back"
            )
        self.disk.write(pid, blob)
        self._memoize(blob, copy_page(frame.page))
        self.clock.charge_cpu(self.costs.copy_cost(len(blob)))
        frame.dirty = False
        frame.dirty_entries = 0
        self._dirty_count -= 1
        self.stats.bump("writebacks")
        self.stats.bump("writeback_bytes", len(blob))

    def _memoize(self, blob: bytes, template: Page) -> None:
        """Make ``template`` the memo's newest entry, dropping the oldest uses."""
        memo = self._decoded
        memo[blob] = template
        memo.move_to_end(blob)
        while len(memo) > self._decoded_cap:
            memo.popitem(last=False)

    def _writeback_needed(self) -> bool:
        """True when the dirty fraction has crossed the flush threshold.

        O(1): ``_dirty_count`` tracks the per-frame dirty bits incrementally,
        so the per-insert trigger check never scans the pool.
        """
        frames = len(self._frames)
        if frames < self._capacity_frames:
            return False
        return self._dirty_count >= self._dirty_fraction * frames

    def _maybe_proactive_writeback(self) -> None:
        """Trigger check: route the batch flush through the scheduler."""
        if self._writeback_needed():
            self._scheduler.request(self._writeback_task)

    def _proactive_writeback_pass(self) -> None:
        """LeanStore policy: flush-and-evict the most-dirtied frames."""
        if not self._writeback_needed():
            return
        dirty_frames = [(f.dirty_entries, pid, f) for pid, f in self._frames.items() if f.dirty]
        batch = max(1, int(self.config.writeback_batch_fraction * len(self._frames)))
        # Stable: equally dirtied frames keep their frame-table order.
        dirty_frames.sort(key=itemgetter(0), reverse=True)
        evict = self._evict_frame
        bump = self.stats.bump
        for __, pid, frame in dirty_frames[:batch]:
            if frame.pins > 0:
                continue
            evict(pid)
            bump("proactive_writebacks")

    def flush_all(self) -> None:
        """Write back every dirty frame (shutdown / checkpoint)."""
        for pid, frame in self._frames.items():
            if frame.dirty:
                self._write_back(pid, frame)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        dirty = sum(1 for f in self._frames.values() if f.dirty)
        return f"BufferPool(frames={len(self._frames)}/{self.capacity_frames}, dirty={dirty})"

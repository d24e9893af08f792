"""Page-based B+ tree over the buffer pool.

Every structural decision that costs the paper's B+-tree Index Y its
performance is physically present here: point inserts dirty whole pages,
page overflow splits allocate and dirty new pages, evicted leaves must be
re-read (random I/O) before they can absorb another insert, and all of it
is charged per page access.

The same class serves as the LeanStore-analogue engine (large pool) and as
the framework's Index Y (small transfer-buffer pool).
"""

from __future__ import annotations

from operator import add
from typing import Iterator, Optional

from repro.diskbtree.bufferpool import BufferPool, BufferPoolConfig
from repro.diskbtree.page import (
    CHILD_BYTES,
    LEAF_ENTRY_BYTES,
    PAGE_HEADER_BYTES,
    SEPARATOR_LENGTH_BYTES,
    InnerPage,
    LeafPage,
)
from repro.sim.effects import charges
from repro.sim.runtime import EngineRuntime
from repro.sim.stats import StatCounters

import bisect


def oversized_entry(key_bytes: int, value_bytes: int, page_size: int) -> ValueError:
    """The one refusal of an entry that would overflow even an empty leaf."""
    return ValueError(
        f"entry of {key_bytes}-byte key and {value_bytes}-byte value does not "
        f"fit a {page_size}-byte page"
    )


class DiskBPlusTree:
    """An on-disk B+ tree: page-granular storage, split-on-overflow."""

    def __init__(
        self,
        runtime: EngineRuntime,
        pool_bytes: int,
        page_size: int = 4096,
        pool_policy: str = "clock",
    ) -> None:
        self.clock = runtime.clock
        self.costs = runtime.costs
        self.page_size = page_size
        #: the largest key plus value an empty leaf holds, and the longest
        #: key an inner page holds as its one separator; ``put`` refuses
        #: more.  A value is bounded by the leaf alone.
        self.max_entry_bytes = page_size - PAGE_HEADER_BYTES - LEAF_ENTRY_BYTES
        self.max_key_bytes = (
            page_size - PAGE_HEADER_BYTES - SEPARATOR_LENGTH_BYTES - 2 * CHILD_BYTES
        )
        self.max_value_bytes = self.max_entry_bytes
        self.pool = BufferPool(
            runtime,
            BufferPoolConfig(
                capacity_bytes=pool_bytes, page_size=page_size, policy=pool_policy
            ),
        )
        self.stats = StatCounters()  # component-local counters  # reprolint: allow[RL001]
        root = LeafPage()
        self._root_pid = self.pool.new_page(root)
        self.key_count = 0

    # ------------------------------------------------------------------
    # cost charging
    # ------------------------------------------------------------------
    @charges("cpu_charge")
    def _charge_levels(self, levels: int, extra_ns: float = 0.0) -> None:
        self.clock.charge_cpu(levels * self.costs.page_access + extra_ns)

    # ------------------------------------------------------------------
    # descent
    # ------------------------------------------------------------------
    def _descend(self, key: bytes) -> tuple[list[tuple[int, int]], int, LeafPage]:
        """Walk to the leaf for ``key``.

        Returns ``(path, leaf_pid, leaf)`` where path holds
        ``(inner_pid, child_slot)`` pairs from the root downward.  Path
        pages are pinned; the caller must release them via
        ``pool.unpin_path``.
        """
        path: list[tuple[int, int]] = []
        pid = self._root_pid
        levels = 0
        get_page = self.pool.get_page
        # Pinned in place, as ``BufferPool.pin`` would, right after each
        # fetch: the next level's fault must not evict this one.
        frames = self.pool._frames
        while True:
            page = get_page(pid)
            frames[pid].pins += 1
            levels += 1
            if isinstance(page, LeafPage):
                self._charge_levels(levels)
                return path, pid, page
            slot = page.child_slot(key)
            path.append((pid, slot))
            pid = page.children[slot]

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        path, leaf_pid, leaf = self._descend(key)
        try:
            return leaf.lookup(key)
        finally:
            self.pool.unpin_path(path, leaf_pid)

    def __contains__(self, key: bytes) -> bool:
        return self.get(key) is not None

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Range scan along the leaf chain."""
        if count <= 0:
            return []
        path, leaf_pid, leaf = self._descend(start)
        self.pool.unpin_path(path, leaf_pid)
        out: list[tuple[bytes, bytes]] = []
        pid: Optional[int] = leaf_pid
        page: Optional[LeafPage] = leaf
        get_page = self.pool.get_page
        while page is not None and len(out) < count:
            i = bisect.bisect_left(page.keys, start)
            end = i + count - len(out)
            out.extend(zip(page.keys[i:end], page.values[i:end]))
            pid = page.next_leaf
            if pid is None or len(out) >= count:
                break
            page = get_page(pid)
            self._charge_levels(1)
        return out

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Full ordered iteration (used by tests and verification)."""
        pid: Optional[int] = self._leftmost_leaf()
        get_page = self.pool.get_page
        while pid is not None:
            page = get_page(pid)
            assert isinstance(page, LeafPage)
            yield from zip(page.keys, page.values, strict=True)
            pid = page.next_leaf

    def _leftmost_leaf(self) -> int:
        pid = self._root_pid
        get_page = self.pool.get_page
        while True:
            page = get_page(pid)
            if isinstance(page, LeafPage):
                return pid
            pid = page.children[0]

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put(self, key: bytes, value: bytes) -> bool:
        """Insert or overwrite; returns True when the key is new.

        Raises ValueError, before touching the tree, for an entry that
        would overflow even an empty leaf, or a key longer than an inner
        page holds as its one separator: no split could make room for it.
        """
        if len(key) > self.max_key_bytes or len(key) + len(value) > self.max_entry_bytes:
            raise oversized_entry(len(key), len(value), self.page_size)
        path, leaf_pid, leaf = self._descend(key)
        try:
            if leaf.overwrite(key, value):
                is_new = grew = False
            else:
                keys = leaf.keys
                i = bisect.bisect_left(keys, key)
                is_new = i == len(keys) or keys[i] != key
                if is_new:
                    keys.insert(i, key)
                    leaf.values.insert(i, value)
                    self.key_count += 1
                    grew = True
                else:
                    grew = len(value) > len(leaf.values[i])
                    leaf.values[i] = value
            self.pool.mark_dirty(leaf_pid)
            self._charge_levels(0, self.costs.leaf_mutate)
            if grew and leaf.payload_bytes() > self.page_size:
                # Splits consume their own copy of the path; the original
                # stays intact for unpinning in the ``finally`` below.
                self._split_leaf(leaf_pid, leaf, list(path))
            return is_new
        finally:
            self.pool.unpin_path(path, leaf_pid)

    def put_batch(self, pairs: list[tuple[bytes, bytes]]) -> None:
        """Batched sorted writes from the framework's pre-cleaner."""
        for key, value in pairs:
            self.put(key, value)

    def delete(self, key: bytes) -> bool:
        path, leaf_pid, leaf = self._descend(key)
        try:
            i = bisect.bisect_left(leaf.keys, key)
            if i >= len(leaf.keys) or leaf.keys[i] != key:
                return False
            del leaf.keys[i], leaf.values[i]
            self.key_count -= 1
            self.pool.mark_dirty(leaf_pid)
            self._charge_levels(0, self.costs.leaf_mutate)
            # Lazy shrink: empty leaves stay linked until their parent slot
            # is reused; full rebalancing is unnecessary for the studied
            # workloads (the framework shrinks by subtree, not by key).
            return True
        finally:
            self.pool.unpin_path(path, leaf_pid)

    # ------------------------------------------------------------------
    # splits
    # ------------------------------------------------------------------
    def _split_leaf(self, pid: int, leaf: LeafPage, path: list[tuple[int, int]]) -> None:
        """Cut an overflowing leaf at its middle entry.

        When a half would still overflow (a near-page-size entry among
        smaller ones), the largest entry gets a leaf of its own and the
        entries before and after it one leaf each instead.  The leaf fit
        before one entry was added or grew, so each side of the largest
        entry fits.
        """
        keys = leaf.keys
        values = leaf.values
        count = len(keys)
        mid = count // 2
        cuts = [mid]
        sizes = list(map(add, map(len, keys), map(len, values)))
        room = self.page_size - PAGE_HEADER_BYTES
        if (
            sum(sizes[:mid]) + LEAF_ENTRY_BYTES * mid > room
            or sum(sizes[mid:]) + LEAF_ENTRY_BYTES * (count - mid) > room
        ):
            largest = sizes.index(max(sizes))
            cuts = [cut for cut in (largest, largest + 1) if 0 < cut < count]
        # Peel the pieces off from the right: each new leaf takes the
        # entries from its cut on and the link ``leaf`` had.
        separators: list[bytes] = []
        pids: list[int] = []
        new_page = self.pool.new_page
        for cut in reversed(cuts):
            right = LeafPage()
            right.keys = keys[cut:]
            right.values = values[cut:]
            right.next_leaf = leaf.next_leaf
            del keys[cut:], values[cut:]
            leaf.next_leaf = new_page(right)
            separators.insert(0, right.keys[0])
            pids.insert(0, leaf.next_leaf)
        self.pool.mark_dirty(pid, mutated_entries=len(keys))
        self.stats.bump("leaf_splits", len(pids))
        self._charge_levels(
            0, len(pids) * (self.costs.node_alloc + self.costs.copy_cost(self.page_size // 2))
        )
        self._insert_separators(separators, pids, path)

    def _insert_separators(
        self, separators: list[bytes], pids: list[int], path: list[tuple[int, int]]
    ) -> None:
        """Link the new right siblings ``pids``, first keys ``separators``, into the parent."""
        if not path:
            new_root = InnerPage()
            new_root.children = [self._root_pid, *pids]
            new_root.separators = separators
            root_pid = self.pool.new_page(new_root)
            self._root_pid = root_pid
            self.stats.bump("height_growths")
            if new_root.payload_bytes() > self.page_size:
                # Two or more long separators (a leaf cut around its largest
                # entry) can overflow even a fresh root: split it like any
                # inner page, pinned so its new siblings cannot evict it.
                self.pool.pin(root_pid)
                try:
                    self._split_inner(root_pid, new_root, [])
                finally:
                    self.pool.unpin(root_pid)
            return
        parent_pid, slot = path.pop()
        parent = self.pool.get_page(parent_pid)
        assert isinstance(parent, InnerPage)
        parent.separators[slot:slot] = separators
        parent.children[slot + 1 : slot + 1] = pids
        self.pool.mark_dirty(parent_pid)
        if parent.payload_bytes() > self.page_size:
            self._split_inner(parent_pid, parent, path)

    def _split_inner(self, pid: int, inner: InnerPage, path: list[tuple[int, int]]) -> None:
        """Cut an overflowing inner page at its middle separator, which moves up.

        When a half would still overflow (long separators), the cut is by
        bytes instead: each page takes separators while they fit, and the
        first one that does not moves up.
        """
        separators = inner.separators
        children = inner.children
        count = len(separators)
        mid = count // 2
        cuts = [mid]
        lengths = list(map(len, separators))
        # Each separator adds its 2-byte length and one child; a page has
        # one child more than separators.
        room = self.page_size - PAGE_HEADER_BYTES - CHILD_BYTES
        per_separator = SEPARATOR_LENGTH_BYTES + CHILD_BYTES
        if (
            sum(lengths[:mid]) + per_separator * mid > room
            or sum(lengths[mid + 1 :]) + per_separator * (count - mid - 1) > room
        ):
            cuts = []
            used = 0
            for i, length in enumerate(lengths):
                if used + length + per_separator > room:
                    cuts.append(i)
                    used = 0
                else:
                    used += length + per_separator
        promoted: list[bytes] = []
        pids: list[int] = []
        new_page = self.pool.new_page
        for cut in reversed(cuts):
            right = InnerPage()
            right.separators = separators[cut + 1 :]
            right.children = children[cut + 1 :]
            promoted.insert(0, separators[cut])
            del separators[cut:], children[cut + 1 :]
            pids.insert(0, new_page(right))
        self.pool.mark_dirty(pid)
        self.stats.bump("inner_splits", len(pids))
        self._charge_levels(0, len(pids) * self.costs.node_alloc)
        self._insert_separators(promoted, pids, path)

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self.pool.used_bytes

    def flush_all(self) -> None:
        self.pool.flush_all()

    def __len__(self) -> int:
        return self.key_count

"""Runtime invariant sanitizers.

Composable validators for every structure in the stack.  Each ``check_*``
function walks one structure and returns a list of :class:`Violation`
records (empty when the structure is healthy); :class:`IndexSanitizer`
composes them into the hook points :class:`~repro.core.indexy.IndeXY`
calls when built with ``debug_checks=True``; :class:`StoreSanitizer`
does the same for the framework-less baselines (B+-B+, RocksDB-like).
The periodic orchestrators share one cadence, :class:`PeriodicSanitizer`.

The catalogue (see DESIGN.md for the paper mapping):

* **ART** — node-type capacity, child-count agreement, radix prefix
  consistency, exact leaf counts, dirty-bit propagation (a dirty leaf
  must have every ancestor's D bit set, or ``iter_dirty_leaves`` pruning
  would lose unflushed data), and exact incremental memory accounting.
* **C bits** — all four D/C states are legal protocol states, so C-bit
  health cannot be judged locally; :class:`CheckBackAuditor` shadows
  every C-bit transition the pre-cleaner makes and the audit flags any
  C bit the scan did not set.
* **B+ tree** — key ordering and separator bounds, arity and capacity,
  leaf counts, per-entry dirty propagation, memory accounting.
* **disk B+ tree** — page payload within the page size, ordering and
  bounds, the leaf chain visiting exactly the tree's leaves in order,
  buffer-pool frame bookkeeping, and no leaked pins between operations.
* **LSM** — levels 1+ sorted and disjoint, per-table entry ordering and
  metadata agreement, bloom coverage of every stored key, and tombstone
  visibility (a key whose newest version is a tombstone reads as absent).
* **engine** — Index X within the watermarks after a release cycle, X/Y
  coherence after a flush, deleted keys never resurrecting, and the
  simulated clocks never running backwards.
* **shard router** — per-shard substrate isolation (no two shards may
  share a clock, disk, or stats bus — the router's whole contract is
  that shards are independent engines), partitioner/shard-count
  agreement, placement determinism (``shard_of`` and ``split`` agree and
  stay in range), and monotone placement for ordered partitioners.
  :class:`ShardSanitizer` runs these router-level checks; each shard
  additionally runs its own system-level sanitizer exactly as when it
  serves alone.

Sanitizers read through the same charged APIs as the engine (buffer-pool
page access, SSTable block reads), so enabling them perturbs simulated
time; see EXPERIMENTS.md for the measured overhead.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.art.nodes import InnerNode as ARTInnerNode
from repro.art.nodes import Leaf as ARTLeaf
from repro.art.tree import AdaptiveRadixTree
from repro.btree.node import BInner, BLeaf, BNode
from repro.btree.tree import BPlusTree
from repro.core.multi_y import RoutedIndexY
from repro.diskbtree.bufferpool import BufferPool
from repro.diskbtree.page import LeafPage
from repro.cache.bytecache import PolicyCache
from repro.diskbtree.tree import DiskBPlusTree
from repro.lsm.sstable import block_fits, decode_block
from repro.lsm.store import MAX_LEVELS, TOMBSTONE, LSMStore

if TYPE_CHECKING:
    from repro.core.indexy import IndeXY
    from repro.shard.router import ShardRouter
    from repro.sim.runtime import EngineRuntime

__all__ = [
    "Violation",
    "CheckError",
    "CacheSanitizer",
    "CheckBackAuditor",
    "IndexSanitizer",
    "PeriodicSanitizer",
    "ShardSanitizer",
    "StoreSanitizer",
    "check_art",
    "check_art_memory",
    "check_btree",
    "check_buffer_pool",
    "check_disk_btree",
    "check_flush_coherence",
    "check_index_y",
    "check_indexy",
    "check_lsm",
    "check_no_leaked_pins",
    "check_policy_cache",
    "check_release_watermark",
    "check_shard_router",
    "refuse_backwards_time",
]

#: cap on violations one walk reports for a single check (a corrupted
#: structure tends to trip the same assertion everywhere).
_MAX_PER_CHECK = 8
#: recently deleted keys an ``IndexSanitizer`` keeps for its
#: no-resurrection sample.
_MAX_DELETED_TRACKED = 512


@dataclass(frozen=True)
class Violation:
    """One broken invariant at one location."""

    check: str
    message: str

    def render(self) -> str:
        return f"[{self.check}] {self.message}"


class CheckError(AssertionError):
    """Raised when sanitizers find one or more violations."""

    def __init__(self, violations: list[Violation]) -> None:
        self.violations = violations
        lines = [v.render() for v in violations[:_MAX_PER_CHECK]]
        if len(violations) > _MAX_PER_CHECK:
            lines.append(f"... and {len(violations) - _MAX_PER_CHECK} more")
        super().__init__("sanitizer found {} violation(s):\n  {}".format(
            len(violations), "\n  ".join(lines)
        ))

    @classmethod
    def of(cls, check: str, message: str) -> "CheckError":
        """The error for one violation raised where it happens (a probe)."""
        return cls([Violation(check, message)])


class _Collector:
    """Accumulates violations for one check, capped per check name."""

    def __init__(self) -> None:
        self.violations: list[Violation] = []
        self._per_check: dict[str, int] = {}

    def add(self, check: str, message: str) -> None:
        seen = self._per_check.get(check, 0)
        self._per_check[check] = seen + 1
        if seen < _MAX_PER_CHECK:
            self.violations.append(Violation(check, message))


class PeriodicSanitizer:
    """The cadence every orchestrator shares; subclasses supply the sweep.

    ``after_op`` / ``after_batch(n)`` advance an operation counter and run
    the full :meth:`sweep` whenever an ``interval`` boundary was crossed,
    so batched and single-op callers check at the same cadence.  Any
    violation raises :class:`CheckError`; ``checks_run`` counts full
    sweeps.
    """

    def __init__(self, interval: int) -> None:
        self.interval = max(1, interval)
        self.checks_run = 0
        self._ops = 0

    def sweep(self) -> list[Violation]:
        raise NotImplementedError

    def after_op(self) -> None:
        self.after_batch(1)

    def after_batch(self, ops: int) -> None:
        if ops <= 0:
            return
        before = self._ops
        self._ops += ops
        self._check(before // self.interval != self._ops // self.interval)

    def check_now(self) -> None:
        """Run the full sweep immediately (tests, checkpoints)."""
        self._check(True)

    def _check(self, full: bool, extra: Sequence[Violation] = ()) -> None:
        violations = list(extra)
        if full:
            self.checks_run += 1
            violations += self.sweep()
        if violations:
            raise CheckError(violations)


# ----------------------------------------------------------------------
# ART structural checks
# ----------------------------------------------------------------------
def iter_art_inner_nodes(tree: AdaptiveRadixTree) -> Iterator[ARTInnerNode]:
    """All live inner nodes of ``tree`` (pre-order)."""
    stack: list[ARTInnerNode] = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        for __, child in node.children_items():
            if isinstance(child, ARTInnerNode):
                stack.append(child)


def check_art(tree: AdaptiveRadixTree) -> list[Violation]:
    """Structural invariants of the adaptive radix tree."""
    out = _Collector()
    root = tree.root
    if not isinstance(root, ARTInnerNode):
        out.add("art-root", f"root must be an inner node, found {type(root).__name__}")
        return out.violations

    def walk(node: ARTInnerNode, path: bytes, ancestors_dirty: bool) -> tuple[int, bool]:
        """Returns ``(leaves_below, any_dirty_leaf_below)``."""
        full_path = path + node.prefix
        counted = 0
        leaves = 0
        any_dirty = False
        for byte, child in node.children_items():
            counted += 1
            child_path = full_path + bytes([byte])
            if isinstance(child, ARTLeaf):
                leaves += 1
                if not child.key.startswith(child_path):
                    out.add(
                        "art-prefix",
                        f"leaf key {child.key!r} does not extend its radix path "
                        f"{child_path!r}",
                    )
                if child.dirty:
                    any_dirty = True
                    if not (node.dirty and ancestors_dirty):
                        out.add(
                            "art-dirty-propagation",
                            f"dirty leaf {child.key!r} has a clean ancestor; "
                            "iter_dirty_leaves pruning would lose it",
                        )
            else:
                sub_leaves, sub_dirty = walk(
                    child, child_path, ancestors_dirty and node.dirty
                )
                leaves += sub_leaves
                any_dirty = any_dirty or sub_dirty
        if counted != node.num_children:
            out.add(
                "art-child-count",
                f"{type(node).__name__} at path {full_path!r} reports "
                f"{node.num_children} children but iterates {counted}",
            )
        if counted > type(node).CAPACITY:
            out.add(
                "art-capacity",
                f"{type(node).__name__} at path {full_path!r} holds {counted} "
                f"children, over its capacity {type(node).CAPACITY}",
            )
        if node.leaf_count != leaves:
            out.add(
                "art-leaf-count",
                f"{type(node).__name__} at path {full_path!r} records "
                f"leaf_count={node.leaf_count}, actual {leaves}",
            )
        if any_dirty and not node.dirty:
            out.add(
                "art-dirty-propagation",
                f"node at path {full_path!r} is clean but holds dirty leaves",
            )
        return leaves, any_dirty

    total, __ = walk(root, b"", True)
    if total != tree.key_count:
        out.add(
            "art-key-count",
            f"tree.key_count={tree.key_count} but the tree holds {total} leaves",
        )
    return out.violations


def check_art_memory(tree: AdaptiveRadixTree) -> list[Violation]:
    """The incremental memory account must equal a fresh recomputation."""
    actual = tree.subtree_memory(tree.root)
    if actual != tree.memory_bytes:
        return [
            Violation(
                "art-memory",
                f"incremental memory_bytes={tree.memory_bytes} but recomputed "
                f"footprint is {actual}",
            )
        ]
    return []


# ----------------------------------------------------------------------
# check-back C-bit auditing
# ----------------------------------------------------------------------
class CheckBackAuditor:
    """Shadow state for the pre-cleaner's check-back C bits.

    Every D/C combination is a legal protocol state, so a purely local
    structural check cannot tell a healthy C bit from a corrupted one.
    Instead the pre-cleaner notifies this auditor on every C-bit set and
    clear (and the ART tree notifies it when adaptive resizing replaces a
    node object); the audit then flags any live node whose C bit the scan
    did not set.  Registered nodes are held by strong reference so object
    ids cannot be reused while an entry is live; entries whose node left
    the tree or lost its C bit are pruned silently.
    """

    def __init__(self) -> None:
        self._candidates: dict[int, Any] = {}

    def note_set(self, node: Any) -> None:
        self._candidates[id(node)] = node

    def note_clear(self, node: Any) -> None:
        self._candidates.pop(id(node), None)

    def note_replaced(self, old: Any, new: Any) -> None:
        """Adaptive resizing copied ``old``'s metadata into ``new``."""
        if self._candidates.pop(id(old), None) is not None and getattr(
            new, "clean_candidate", False
        ):
            self._candidates[id(new)] = new

    @property
    def candidate_count(self) -> int:
        return len(self._candidates)

    def audit(self, live_nodes: Iterable[Any]) -> list[Violation]:
        out = _Collector()
        live_ids: set[int] = set()
        for node in live_nodes:
            live_ids.add(id(node))
            if getattr(node, "clean_candidate", False) and (
                self._candidates.get(id(node)) is not node
            ):
                out.add(
                    "checkback-c-bit",
                    f"{type(node).__name__} carries a C bit the pre-cleaning "
                    "scan never set",
                )
        stale = [
            key
            for key, node in self._candidates.items()
            if key not in live_ids or not getattr(node, "clean_candidate", False)
        ]
        for key in stale:
            del self._candidates[key]
        return out.violations


# ----------------------------------------------------------------------
# in-memory B+ tree checks
# ----------------------------------------------------------------------
def iter_btree_nodes(tree: BPlusTree) -> Iterator[BNode]:
    """All live nodes of the in-memory B+ tree (pre-order)."""
    stack: list[BNode] = [tree.root]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, BInner):
            stack.extend(node.children)


def check_btree(tree: BPlusTree) -> list[Violation]:
    """Structural invariants of the in-memory B+ tree."""
    out = _Collector()

    def walk(
        node: BNode,
        low: Optional[bytes],
        high: Optional[bytes],
        ancestors_dirty: bool,
    ) -> tuple[int, bool]:
        """Returns ``(entries_below, any_dirty_entry_below)``.

        Keys under ``node`` must satisfy ``low <= key < high`` (half-open;
        ``None`` means unbounded): ``child_slot`` routes keys equal to a
        separator into the right sibling.
        """
        if isinstance(node, BLeaf):
            n = len(node.keys)
            if len(node.values) != n or len(node.entry_dirty) != n:
                out.add(
                    "btree-parallel-arrays",
                    f"leaf arrays disagree: {n} keys, {len(node.values)} values, "
                    f"{len(node.entry_dirty)} dirty flags",
                )
            if n > node.capacity:
                out.add("btree-capacity", f"leaf holds {n} entries, capacity {node.capacity}")
            for i, key in enumerate(node.keys):
                if i > 0 and node.keys[i - 1] >= key:
                    out.add(
                        "btree-order",
                        f"leaf keys out of order: {node.keys[i - 1]!r} !< {key!r}",
                    )
                if (low is not None and key < low) or (high is not None and key >= high):
                    out.add(
                        "btree-bounds",
                        f"leaf key {key!r} escapes its separator range "
                        f"[{low!r}, {high!r})",
                    )
            any_dirty = any(node.entry_dirty[: len(node.keys)])
            if any_dirty and not (node.dirty and ancestors_dirty):
                out.add(
                    "btree-dirty-propagation",
                    "leaf holds dirty entries but its dirty bit or an ancestor's "
                    "is clear; iter_dirty_entries pruning would lose them",
                )
            return n, any_dirty

        if len(node.children) != len(node.separators) + 1:
            out.add(
                "btree-arity",
                f"inner node has {len(node.children)} children for "
                f"{len(node.separators)} separators",
            )
            return node.leaf_count, False
        if len(node.children) > node.capacity:
            out.add(
                "btree-capacity",
                f"inner node holds {len(node.children)} children, "
                f"capacity {node.capacity}",
            )
        for i, sep in enumerate(node.separators):
            if i > 0 and node.separators[i - 1] >= sep:
                out.add(
                    "btree-order",
                    f"separators out of order: {node.separators[i - 1]!r} !< {sep!r}",
                )
            if (low is not None and sep < low) or (high is not None and sep >= high):
                out.add(
                    "btree-bounds",
                    f"separator {sep!r} escapes its range [{low!r}, {high!r})",
                )
        entries = 0
        any_dirty = False
        below_dirty = ancestors_dirty and node.dirty
        for i, child in enumerate(node.children):
            child_low = low if i == 0 else node.separators[i - 1]
            child_high = high if i == len(node.children) - 1 else node.separators[i]
            sub_entries, sub_dirty = walk(child, child_low, child_high, below_dirty)
            entries += sub_entries
            any_dirty = any_dirty or sub_dirty
        if node.leaf_count != entries:
            out.add(
                "btree-leaf-count",
                f"inner node records leaf_count={node.leaf_count}, actual {entries}",
            )
        if any_dirty and not node.dirty:
            out.add(
                "btree-dirty-propagation",
                "inner node is clean but its subtree holds dirty entries",
            )
        return entries, any_dirty

    total, __ = walk(tree.root, None, None, True)
    if total != tree.key_count:
        out.add(
            "btree-key-count",
            f"tree.key_count={tree.key_count} but the tree holds {total} entries",
        )
    actual = tree.subtree_memory(tree.root)
    if actual != tree.memory_bytes:
        out.add(
            "btree-memory",
            f"incremental memory_bytes={tree.memory_bytes} but recomputed "
            f"footprint is {actual}",
        )
    return out.violations


# ----------------------------------------------------------------------
# disk B+ tree / buffer pool checks
# ----------------------------------------------------------------------
def check_disk_btree(tree: DiskBPlusTree) -> list[Violation]:
    """Structural invariants of the page-based B+ tree.

    Pages are fetched through the buffer pool's charged API, so the check
    itself causes faults and evictions — deliberate: the sanitizer sees
    exactly what the tree would see.
    """
    out = _Collector()
    leaf_order: list[int] = []
    total = 0

    def walk(pid: int, low: Optional[bytes], high: Optional[bytes]) -> None:
        nonlocal total
        page = tree.pool.get_page(pid)
        if page.payload_bytes() > tree.page_size:
            out.add(
                "diskbtree-page-size",
                f"page {pid} payload {page.payload_bytes()}B exceeds the "
                f"{tree.page_size}B page size",
            )
        if isinstance(page, LeafPage):
            leaf_order.append(pid)
            if len(page.values) != len(page.keys):
                out.add(
                    "diskbtree-parallel-arrays",
                    f"leaf page {pid}: {len(page.keys)} keys, "
                    f"{len(page.values)} values",
                )
            for i, key in enumerate(page.keys):
                if i > 0 and page.keys[i - 1] >= key:
                    out.add(
                        "diskbtree-order",
                        f"leaf page {pid} keys out of order at index {i}",
                    )
                if (low is not None and key < low) or (high is not None and key >= high):
                    out.add(
                        "diskbtree-bounds",
                        f"leaf page {pid} key {key!r} escapes [{low!r}, {high!r})",
                    )
            total += len(page.keys)
            return
        if len(page.children) != len(page.separators) + 1:
            out.add(
                "diskbtree-arity",
                f"inner page {pid} has {len(page.children)} children for "
                f"{len(page.separators)} separators",
            )
            return
        for i, sep in enumerate(page.separators):
            if i > 0 and page.separators[i - 1] >= sep:
                out.add(
                    "diskbtree-order",
                    f"inner page {pid} separators out of order at index {i}",
                )
            if (low is not None and sep < low) or (high is not None and sep >= high):
                out.add(
                    "diskbtree-bounds",
                    f"inner page {pid} separator {sep!r} escapes [{low!r}, {high!r})",
                )
        for i, child in enumerate(page.children):
            child_low = low if i == 0 else page.separators[i - 1]
            child_high = high if i == len(page.children) - 1 else page.separators[i]
            walk(child, child_low, child_high)

    walk(tree._root_pid, None, None)
    if total != tree.key_count:
        out.add(
            "diskbtree-key-count",
            f"tree.key_count={tree.key_count} but the pages hold {total} entries",
        )

    # The next_leaf chain must visit exactly the tree's leaves, in tree
    # order, with globally sorted keys (range scans depend on all three).
    chained: list[int] = []
    pid: Optional[int] = leaf_order[0] if leaf_order else None
    last_key: Optional[bytes] = None
    while pid is not None and len(chained) <= len(leaf_order):
        chained.append(pid)
        page = tree.pool.get_page(pid)
        if not isinstance(page, LeafPage):
            out.add("diskbtree-chain", f"next_leaf chain reaches inner page {pid}")
            break
        for key in page.keys:
            if last_key is not None and key <= last_key:
                out.add(
                    "diskbtree-chain",
                    f"leaf chain key order broken at page {pid}: "
                    f"{last_key!r} !< {key!r}",
                )
            last_key = key
        pid = page.next_leaf
    if chained != leaf_order:
        out.add(
            "diskbtree-chain",
            f"leaf chain visits pages {chained} but the tree walk found "
            f"{leaf_order}",
        )
    return out.violations


def check_no_leaked_pins(pool: BufferPool) -> list[Violation]:
    """Between operations every frame's pin count must be zero."""
    out = _Collector()
    for pid, frame in pool._frames.items():
        if frame.pins != 0:
            out.add(
                "bufferpool-pin-leak",
                f"page {pid} holds {frame.pins} pin(s) while the pool is idle",
            )
    return out.violations


def check_buffer_pool(pool: BufferPool) -> list[Violation]:
    """Frame-table / eviction-policy bookkeeping agreement."""
    out = _Collector()
    policy = pool.policy
    for problem in policy.self_check():
        out.add("bufferpool-policy", f"{policy.name}: {problem}")
    tracked = set(policy.keys())
    if tracked != set(pool._frames):
        missing = set(pool._frames) - tracked
        extra = tracked - set(pool._frames)
        out.add(
            "bufferpool-policy",
            f"eviction policy and frame table disagree (missing={sorted(missing)}, "
            f"stale={sorted(extra)})",
        )
    expected = len(pool._frames) * pool.config.page_size
    if policy.used_bytes != expected:
        out.add(
            "bufferpool-bytes",
            f"policy accounts {policy.used_bytes} resident bytes but the frame "
            f"table holds {expected}",
        )
    pinned = sum(1 for f in pool._frames.values() if f.pins > 0)
    if pinned == 0 and len(pool._frames) > pool.capacity_frames:
        out.add(
            "bufferpool-overcommit",
            f"{len(pool._frames)} frames resident with nothing pinned, but the "
            f"budget is {pool.capacity_frames} frames",
        )
    for pid, frame in pool._frames.items():
        if frame.pins < 0:
            out.add("bufferpool-pins", f"page {pid} has negative pin count {frame.pins}")
    dirty = sum(1 for f in pool._frames.values() if f.dirty)
    if pool._dirty_count != dirty:
        out.add(
            "bufferpool-dirty-count",
            f"_dirty_count is {pool._dirty_count} but {dirty} frames are dirty",
        )
    return out.violations


def check_policy_cache(cache: PolicyCache, label: str = "cache") -> list[Violation]:
    """Entry-table / policy-metadata / byte-budget agreement of one cache."""
    out = _Collector()
    policy = cache.policy
    for problem in policy.self_check():
        out.add("cache-policy", f"{label} [{policy.name}]: {problem}")
    tracked = set(policy.keys())
    entries = set(cache._entries)
    if tracked != entries:
        missing = sorted(entries - tracked, key=repr)
        stale = sorted(tracked - entries, key=repr)
        out.add(
            "cache-policy",
            f"{label}: policy and entry table disagree (missing={missing!r}, "
            f"stale={stale!r})",
        )
    charged = sum(size for __, size in cache._entries.values())
    if cache.used_bytes != charged:
        out.add(
            "cache-bytes",
            f"{label}: used_bytes={cache.used_bytes} but entries charge {charged}",
        )
    if policy.used_bytes != cache.used_bytes:
        out.add(
            "cache-bytes",
            f"{label}: policy accounts {policy.used_bytes} bytes, cache "
            f"accounts {cache.used_bytes}",
        )
    if cache.used_bytes > cache.capacity_bytes:
        out.add(
            "cache-budget",
            f"{label}: {cache.used_bytes} resident bytes exceed the "
            f"{cache.capacity_bytes}-byte budget",
        )
    return out.violations


class CacheSanitizer(PeriodicSanitizer):
    """Periodic consistency checks over a set of labelled ``PolicyCache``s.

    The cache-sweep harness registers every byte cache of the system under
    test; ``after_op`` sweeps them every ``interval`` operations and raises
    :class:`CheckError` on the first inconsistency (resident bytes over
    budget, policy metadata out of sync with the entry table).
    """

    def __init__(self, caches: dict[str, PolicyCache], interval: int = 256) -> None:
        super().__init__(interval)
        self.caches = dict(caches)

    def sweep(self) -> list[Violation]:
        violations: list[Violation] = []
        for label, cache in self.caches.items():
            violations += check_policy_cache(cache, label)
        return violations


# ----------------------------------------------------------------------
# LSM checks
# ----------------------------------------------------------------------
def check_lsm(store: LSMStore, max_deep_tables: Optional[int] = None) -> list[Violation]:
    """Level, table, bloom, and tombstone invariants of the LSM store.

    ``max_deep_tables`` bounds how many SSTables are read block-by-block
    (newest first); the level-shape checks always cover every table.  The
    tombstone-visibility check needs the newest version of every key, so
    it only runs when the budget covers the whole store and every table's
    blocks decode.
    """
    out = _Collector()
    for violation in check_policy_cache(store.block_cache, "lsm-block-cache"):
        out.add(violation.check, violation.message)
    if store.row_cache is not None:
        for violation in check_policy_cache(store.row_cache, "lsm-row-cache"):
            out.add(violation.check, violation.message)
    for level in range(1, MAX_LEVELS):
        tables = store.levels[level]
        for i, table in enumerate(tables):
            if table.min_key > table.max_key:
                out.add(
                    "lsm-table-range",
                    f"L{level} table {table.table_id}: min_key > max_key",
                )
            if i > 0:
                prev = tables[i - 1]
                if prev.min_key > table.min_key:
                    out.add(
                        "lsm-level-order",
                        f"L{level} tables {prev.table_id},{table.table_id} "
                        "not sorted by min_key",
                    )
                if prev.max_key >= table.min_key:
                    out.add(
                        "lsm-level-overlap",
                        f"L{level} tables {prev.table_id},{table.table_id} "
                        f"overlap: {prev.max_key!r} >= {table.min_key!r}",
                    )

    # Deep per-table checks, newest first so a truncated budget still
    # covers the tables reads consult first.
    ordered = list(store.levels[0])
    for level in range(1, MAX_LEVELS):
        ordered.extend(store.levels[level])
    budget = len(ordered) if max_deep_tables is None else max_deep_tables
    deep = ordered[: max(0, budget)]
    newest: dict[bytes, bytes] = {}
    for key, value in store._memtable.items():
        newest.setdefault(key, value)
    all_decoded = True
    for table in deep:
        # Read past the store's block cache: probe reads must not warm it
        # (cache-state perturbation would change later real reads).
        blobs = list(map(table._disk.read, table._block_offsets))
        counts = table._block_counts
        misfit = ""
        if len(counts) != len(blobs):
            misfit = f"it has {len(blobs)} blocks"
        else:
            misfits = [i for i, fits in enumerate(map(block_fits, blobs, counts)) if not fits]
            if misfits:
                misfit = f"the length columns of blocks {misfits} do not add up to their bytes"
        if misfit:
            # The stored count is what decodes a block: a wrong one leaves
            # the table's entries unreadable, so nothing below is checked.
            out.add(
                "lsm-block-count",
                f"table {table.table_id} keeps per-block entry counts {counts}; {misfit}",
            )
            all_decoded = False
            continue
        entries = list(chain.from_iterable(map(decode_block, blobs, counts)))
        if len(entries) != table.entry_count:
            out.add(
                "lsm-table-count",
                f"table {table.table_id} holds {len(entries)} entries, "
                f"metadata says {table.entry_count}",
            )
        for i, (key, __) in enumerate(entries):
            if i > 0 and entries[i - 1][0] >= key:
                out.add(
                    "lsm-table-order",
                    f"table {table.table_id} keys out of order at index {i}",
                )
            if not table.bloom.may_contain(key):
                out.add(
                    "lsm-bloom",
                    f"table {table.table_id} stores {key!r} but its bloom "
                    "filter denies it",
                )
        if entries:
            if entries[0][0] != table.min_key or entries[-1][0] != table.max_key:
                out.add(
                    "lsm-table-range",
                    f"table {table.table_id} metadata range "
                    f"[{table.min_key!r}, {table.max_key!r}] does not match its "
                    f"entries [{entries[0][0]!r}, {entries[-1][0]!r}]",
                )
        for key, value in entries:
            newest.setdefault(key, value)

    if len(deep) == len(ordered) and all_decoded:
        probes = 0
        for key, value in newest.items():
            if value != TOMBSTONE:
                continue
            probes += 1
            if probes > 64:
                break
            if store.get(key) is not None:
                out.add(
                    "lsm-tombstone",
                    f"key {key!r} reads back although its newest version is a "
                    "tombstone",
                )
    return out.violations


# ----------------------------------------------------------------------
# engine-level checks
# ----------------------------------------------------------------------
def refuse_backwards_time(effect: str, amount: float) -> None:
    """Substrate probe: the simulated clocks must never run backwards.

    Every account only moves by charges, so time is monotone exactly
    when no charge is negative (or NaN, which poisons the account for
    good); the offending charge is refused before it lands.  A direct
    write to an account is invisible to a probe; RL002 forbids it
    statically outside ``sim/``.
    """
    if effect != "stat" and not amount >= 0:
        raise CheckError.of(
            "clock-monotonic", f"a {effect} of {amount}ns would run simulated time backwards"
        )


def check_release_watermark(index: "IndeXY", released: int) -> list[Violation]:
    """After a release cycle that freed memory, Index X must sit at or
    below the high watermark (overshoot *below* the low watermark is
    allowed — Algorithm 1's margin works in bytes, not exactness)."""
    if released <= 0:
        return []
    memory = index.x.memory_bytes
    high = index.config.high_watermark_bytes
    if memory > high:
        return [
            Violation(
                "release-watermark",
                f"release cycle freed {released}B but Index X still holds "
                f"{memory}B, above the high watermark {high}B",
            )
        ]
    return []


def check_flush_coherence(index: "IndeXY") -> list[Violation]:
    """After ``flush()``: X holds no dirty entries and Y agrees with X."""
    out = _Collector()
    dirty = sum(1 for __ in index.x.iter_dirty_entries(index.x.root_ref().node))
    if dirty:
        out.add(
            "flush-dirty",
            f"{dirty} entr(ies) are still dirty in Index X after a flush",
        )
    for key, value in index.x.items():
        stored = index.y.get(key)
        if stored != value:
            out.add(
                "flush-coherence",
                f"key {key!r} is {value!r} in X but {stored!r} in Y after a flush",
            )
    return out.violations


def check_indexy(index: "IndeXY") -> list[Violation]:
    """Dispatch the structural checks for one IndeXY's X and Y."""
    violations: list[Violation] = []
    x = index.x
    if isinstance(x, AdaptiveRadixTree):
        violations += check_art(x)
        violations += check_art_memory(x)
        auditor = getattr(index.precleaner, "auditor", None)
        if auditor is not None:
            violations += auditor.audit(iter_art_inner_nodes(x))
    elif isinstance(x, BPlusTree):
        violations += check_btree(x)
        auditor = getattr(index.precleaner, "auditor", None)
        if auditor is not None:
            violations += auditor.audit(iter_btree_nodes(x))
    violations += check_index_y(index.y)
    return violations


def check_index_y(y: Any) -> list[Violation]:
    """Dispatch the structural checks for one disk-resident index.

    ``y`` is an Index Y behind the framework or the bare store/tree a
    framework-less baseline drives directly.
    """
    if isinstance(y, LSMStore):
        return check_lsm(y)
    if isinstance(y, RoutedIndexY):
        out: list[Violation] = []
        for backend in y.backends.values():
            out += check_index_y(backend)
        return out
    tree = y if isinstance(y, DiskBPlusTree) else getattr(y, "tree", None)
    if isinstance(tree, DiskBPlusTree):
        out = check_disk_btree(tree)
        out += check_no_leaked_pins(tree.pool)
        out += check_buffer_pool(tree.pool)
        return out
    return []


# ----------------------------------------------------------------------
# orchestrators
# ----------------------------------------------------------------------
class IndexSanitizer(PeriodicSanitizer):
    """Hook-point orchestration for one :class:`~repro.core.indexy.IndeXY`.

    The full structural sweep runs every ``interval`` operations and at
    the release/flush hook points, and every charge on the index's
    runtime passes :func:`refuse_backwards_time`.  Any violation raises
    :class:`CheckError`.
    """

    def __init__(self, index: "IndeXY", interval: int = 256) -> None:
        super().__init__(interval)
        self.index = index
        index.runtime.subscribe(refuse_backwards_time)
        #: recently deleted keys (insertion-ordered, at most
        #: ``_MAX_DELETED_TRACKED``) — the no-resurrection sample of the
        #: structural sweep.
        self._deleted: dict[bytes, None] = {}

    # -- bookkeeping ----------------------------------------------------
    def note_insert(self, key: bytes) -> None:
        self._deleted.pop(key, None)

    def note_delete(self, key: bytes) -> None:
        self._deleted[key] = None
        while len(self._deleted) > _MAX_DELETED_TRACKED:
            self._deleted.pop(next(iter(self._deleted)))

    # -- hook points ----------------------------------------------------
    def after_release(self, released: int) -> None:
        self._check(True, check_release_watermark(self.index, released))

    def after_flush(self) -> None:
        with self.index.runtime.observation():
            coherence = check_flush_coherence(self.index)
        self._check(True, coherence)

    # -- internals ------------------------------------------------------
    def sweep(self) -> list[Violation]:
        with self.index.runtime.observation():
            return check_indexy(self.index) + self._no_resurrection()

    def _no_resurrection(self) -> list[Violation]:
        out = _Collector()
        for key in self._deleted:
            if self.index.x.search(key) is not None:
                out.add(
                    "delete-resurrection",
                    f"deleted key {key!r} is readable from Index X",
                )
            if self.index.y.get(key) is not None:
                out.add(
                    "delete-resurrection",
                    f"deleted key {key!r} is readable from Index Y",
                )
        return out.violations


class StoreSanitizer(PeriodicSanitizer):
    """Periodic structural checks for the framework-less baselines.

    ``checker`` returns the structure-specific violations; every charge
    on ``runtime`` passes :func:`refuse_backwards_time`.  Used by B+-B+
    (disk tree + pool checks) and the RocksDB stand-in (LSM checks).
    """

    def __init__(
        self,
        runtime: "EngineRuntime",
        checker: Callable[[], list[Violation]],
        interval: int = 256,
    ) -> None:
        super().__init__(interval)
        self.runtime = runtime
        self.checker = checker
        runtime.subscribe(refuse_backwards_time)

    def sweep(self) -> list[Violation]:
        with self.runtime.observation():
            return self.checker()


# ----------------------------------------------------------------------
# shard-router checks
# ----------------------------------------------------------------------
#: deterministic placement probes: the low key range (sequential
#: workloads) plus spread-out large keys (hash avalanche coverage).
_SHARD_PROBE_KEYS: tuple[int, ...] = tuple(range(32)) + tuple(
    (i * 0x9E3779B97F4A7C15) % (1 << 40) for i in range(32)
)


def check_shard_router(router: "ShardRouter") -> list[Violation]:
    """Router-level invariants of the sharded serving layer.

    The router's contract is that its shards are fully independent
    engines: distinct simulated substrates, a partition function that is
    total, in-range, and consistent between the single-op and batch
    paths, and (for ordered partitioners) monotone in the key.  Shard
    *content* is each shard's own sanitizer's job.
    """
    out = _Collector()
    shards = router.shards
    partitioner = router.partitioner
    if partitioner.shards != len(shards):
        out.add(
            "shard-count",
            f"partitioner covers {partitioner.shards} shards but the router "
            f"holds {len(shards)}",
        )
    for attr in ("runtime", "clock", "disk", "stats"):
        objects = [getattr(shard, attr) for shard in shards]
        if len({id(obj) for obj in objects}) != len(objects):
            out.add(
                "shard-isolation",
                f"two shards share one {attr}; shards must be fully "
                "independent engines (no shared substrate)",
            )
    n = len(shards)
    previous = 0
    for key in _SHARD_PROBE_KEYS:
        sid = partitioner.shard_of(key)
        if not 0 <= sid < n:
            out.add(
                "shard-placement",
                f"shard_of({key}) = {sid}, outside [0, {n})",
            )
            continue
        if key not in partitioner.split([key])[sid]:
            out.add(
                "shard-placement",
                f"split() and shard_of() disagree on key {key}",
            )
    if partitioner.ordered:
        for key in sorted(_SHARD_PROBE_KEYS):
            sid = partitioner.shard_of(key)
            if sid < previous:
                out.add(
                    "shard-order",
                    f"ordered partitioner is not monotone: shard_of({key}) = "
                    f"{sid} after shard {previous}",
                )
            previous = max(previous, sid)
    _check_weighted_boundaries(out, partitioner)
    _check_transfer(out, router)
    _check_budgets(out, router)
    return out.violations


def _check_weighted_boundaries(out: "_Collector", partitioner: object) -> None:
    """Boundary-table audit of a :class:`WeightedRangePartitioner`.

    The partitioner validates every ``move_boundary``, but the table is
    swapped wholesale by the rebalancer, so the sweep re-audits the live
    tuple: a corrupted table silently misroutes every subsequent key.
    """
    boundaries = getattr(partitioner, "boundaries", None)
    if boundaries is None:
        return
    shards = partitioner.shards  # type: ignore[attr-defined]
    key_space = partitioner.key_space  # type: ignore[attr-defined]
    if len(boundaries) != shards + 1:
        out.add(
            "shard-boundary",
            f"boundary table has {len(boundaries)} entries for {shards} "
            f"shards; need shards + 1",
        )
        return
    if boundaries[0] != 0 or boundaries[-1] != key_space:
        out.add(
            "shard-boundary",
            f"boundary table must span [0, {key_space}], got "
            f"[{boundaries[0]}, {boundaries[-1]}]",
        )
    if any(a >= b for a, b in zip(boundaries, boundaries[1:])):
        out.add(
            "shard-boundary",
            f"boundaries not strictly increasing (an empty shard range): "
            f"{list(boundaries)}",
        )


def _check_transfer(out: "_Collector", router: "ShardRouter") -> None:
    """In-flight transfer descriptor invariants (DESIGN.md §11).

    The lifecycle's commit point publishes the descriptor and swaps the
    routing table together, so whenever a sweep observes a descriptor
    the in-flight range must already route to the destination — any key
    in ``[lo, hi)`` resolving to another shard means the double-read
    seam is reading the wrong pair of engines.  A retiring transfer (a
    merge) must additionally drain into the source's left neighbour —
    the finish step folds the source into ``src - 1``.
    """
    transfer = router.transfer
    if transfer is None:
        return
    n = len(router.shards)
    if not (0 <= transfer.src < n and 0 <= transfer.dst < n):
        out.add(
            "shard-migration",
            f"transfer {transfer.src}->{transfer.dst} names shards "
            f"outside [0, {n})",
        )
        return
    if abs(transfer.src - transfer.dst) != 1:
        out.add(
            "shard-migration",
            f"transfer {transfer.src}->{transfer.dst} is not between "
            "adjacent shards",
        )
    if transfer.retire and transfer.dst != transfer.src - 1:
        out.add(
            "shard-merge",
            f"retire of shard {transfer.src} drains into shard "
            f"{transfer.dst}; a merge must drain the retiring shard into "
            "its left neighbour",
        )
    if not transfer.lo < transfer.hi:
        out.add(
            "shard-migration",
            f"transfer range [{transfer.lo}, {transfer.hi}) is empty",
        )
    if not transfer.lo <= transfer.cursor <= transfer.hi:
        out.add(
            "shard-migration",
            f"drain cursor {transfer.cursor} outside "
            f"[{transfer.lo}, {transfer.hi}]",
        )
    partitioner = router.partitioner
    for key in (transfer.lo, transfer.hi - 1):
        sid = partitioner.shard_of(key)
        if sid != transfer.dst:
            out.add(
                "shard-migration",
                f"in-flight key {key} routes to shard {sid}, not the "
                f"transfer destination {transfer.dst}; the routing table "
                "swap and the descriptor are out of sync",
            )


def _check_budgets(out: "_Collector", router: "ShardRouter") -> None:
    """Budget-pool invariants (DESIGN.md §11.4).

    Budget re-splits and shard splits/merges all re-partition one
    conserved pool, so the per-shard ledger must cover exactly the
    fleet, sum to the pool total (budget moves, it is never created or
    destroyed), and never dip below one byte.
    """
    budgets = router.fleet.budgets
    n = len(router.shards)
    if len(budgets) != n:
        out.add(
            "shard-budget",
            f"budget ledger covers {len(budgets)} shards, fleet holds {n}",
        )
        return
    if any(b < 1 for b in budgets):
        out.add(
            "shard-budget",
            f"a shard's budget fell below one byte: {list(budgets)}",
        )
    total = router.fleet.total
    if sum(budgets) != total:
        out.add(
            "shard-budget",
            f"shard budgets sum to {sum(budgets)} but the pool holds "
            f"{total}; re-splits must conserve the total",
        )


class ShardSanitizer(PeriodicSanitizer):
    """Periodic router-level invariant checks for a :class:`ShardRouter`.

    The checks are pure object-graph walks (no charged reads), so no
    ``observation()`` rollback is needed; per-shard structural sweeps run
    inside the shards' own sanitizers.  The router reports a whole batch
    with ``after_batch``, so batched and single-op serving check at the
    same cadence.
    """

    def __init__(self, router: "ShardRouter", interval: int = 1024) -> None:
        super().__init__(interval)
        self.router = router

    def sweep(self) -> list[Violation]:
        return check_shard_router(self.router)


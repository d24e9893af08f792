"""The in-memory B+ tree.

Supports insert / search / delete / ordered scan with standard top-down
descent and split-on-overflow; deletion is lazy (entries are removed in
place and empty nodes collapse, without eager rebalancing), which matches
how the framework actually shrinks Index X — by detaching whole subtrees,
not by key-at-a-time deletes.

Framework hooks mirror :class:`repro.art.AdaptiveRadixTree`: dirty-bit
propagation, sampled access/insert counters, exact per-subtree entry
counts, key-space partitioning at a depth, and whole-subtree detach.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.btree.node import BInner, BLeaf, BNode
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.effects import charges

DEFAULT_NODE_CAPACITY = 64


@dataclass
class BTreePartitionEntry:
    """One subtree in a key-space partition (see ART's PartitionEntry)."""

    node: BNode
    child_index: Optional[int]
    ancestors: list[BInner] = field(default_factory=list)

    @property
    def parent(self) -> Optional[BInner]:
        return self.ancestors[-1] if self.ancestors else None


class BPlusTree:
    """An ordered in-memory B+ tree over byte keys."""

    def __init__(
        self,
        capacity: int = DEFAULT_NODE_CAPACITY,
        clock: SimClock | None = None,
        costs: CostModel | None = None,
    ) -> None:
        if capacity < 4:
            raise ValueError(f"node capacity must be at least 4, got {capacity}")
        self.capacity = capacity
        self._clock = clock
        self._costs = costs or CostModel()
        self._root: BNode = BLeaf(capacity)
        self.memory_bytes = self._root.memory_bytes()
        self.key_count = 0
        self.tracking_enabled = False
        self.sample_every = 1
        self._op_counter = 0

    # ------------------------------------------------------------------
    # cost charging
    # ------------------------------------------------------------------
    @charges("cpu_charge?")
    def _charge(self, visits: int, extra_ns: float = 0.0) -> None:
        # Clockless trees (unit fixtures) charge nothing.
        if self._clock is not None:
            self._clock.charge_cpu(visits * self._costs.btree_node_visit + extra_ns)

    def _should_sample(self) -> bool:
        if not self.tracking_enabled:
            return False
        self._op_counter += 1
        return self._op_counter % self.sample_every == 0

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, key: bytes) -> Optional[bytes]:
        record = self._should_sample()
        node = self._root
        visits = 0
        while isinstance(node, BInner):
            visits += 1
            if record:
                node.access_count += 1
            node = node.children[node.child_slot(key)]
        visits += 1
        if record:
            node.access_count += 1
        self._charge(visits)
        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            return node.values[i]
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.search(key) is not None

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: bytes, dirty: bool = True) -> bool:
        """Insert or overwrite; returns ``True`` when the key is new."""
        record = self._should_sample()
        path: list[tuple[BInner, int]] = []
        node = self._root
        visits = 0
        while isinstance(node, BInner):
            visits += 1
            if record:
                node.insert_count += 1
            slot = node.child_slot(key)
            path.append((node, slot))
            node = node.children[slot]
        visits += 1
        if record:
            node.insert_count += 1

        i = bisect.bisect_left(node.keys, key)
        if i < len(node.keys) and node.keys[i] == key:
            self.memory_bytes += len(value) - len(node.values[i])
            node.values[i] = value
            node.entry_dirty[i] = node.entry_dirty[i] or dirty
            if dirty:
                node.dirty = True
                node.activity = True
                for inner, __ in path:
                    inner.dirty = True
                    inner.activity = True
            self._charge(visits, self._costs.leaf_mutate)
            return False

        node.keys.insert(i, key)
        node.values.insert(i, value)
        node.entry_dirty.insert(i, dirty)
        self.memory_bytes += len(value)
        self.key_count += 1
        if dirty:
            node.dirty = True
            node.activity = True
        for inner, __ in path:
            inner.leaf_count += 1
            if dirty:
                inner.dirty = True
                inner.activity = True
        if len(node.keys) > self.capacity:
            self._split_leaf(node, path)
        self._charge(visits, self._costs.leaf_mutate)
        return True

    def _split_leaf(self, leaf: BLeaf, path: list[tuple[BInner, int]]) -> None:
        mid = len(leaf.keys) // 2
        right = BLeaf(self.capacity)
        right.keys = leaf.keys[mid:]
        right.values = leaf.values[mid:]
        right.entry_dirty = leaf.entry_dirty[mid:]
        right.dirty = any(right.entry_dirty)
        del leaf.keys[mid:], leaf.values[mid:], leaf.entry_dirty[mid:]
        leaf.dirty = any(leaf.entry_dirty)
        separator = right.keys[0]
        # The fixed slot arrays of ``right`` are new allocations; its payload
        # bytes were already counted when first inserted.
        self.memory_bytes += right.memory_bytes() - sum(len(v) for v in right.values)
        self._charge(0, self._costs.node_alloc + self._costs.copy_cost(len(right.keys) * 24))
        self._insert_into_parent(leaf, separator, right, path)

    def _insert_into_parent(
        self,
        left: BNode,
        separator: bytes,
        right: BNode,
        path: list[tuple[BInner, int]],
    ) -> None:
        if not path:
            root = BInner(self.capacity)
            root.children = [left, right]
            root.separators = [separator]
            root.leaf_count = self.key_count
            root.dirty = getattr(left, "dirty", False) or getattr(right, "dirty", False)
            self._root = root
            self.memory_bytes += root.memory_bytes()
            return
        parent, slot = path.pop()
        parent.separators.insert(slot, separator)
        parent.children.insert(slot + 1, right)
        if len(parent.children) > self.capacity:
            self._split_inner(parent, path)

    def _split_inner(self, inner: BInner, path: list[tuple[BInner, int]]) -> None:
        mid = len(inner.separators) // 2
        promoted = inner.separators[mid]
        right = BInner(self.capacity)
        right.separators = inner.separators[mid + 1 :]
        right.children = inner.children[mid + 1 :]
        del inner.separators[mid:], inner.children[mid + 1 :]
        right.leaf_count = sum(self._count_of(c) for c in right.children)
        inner.leaf_count -= right.leaf_count
        right.dirty = any(getattr(c, "dirty", False) for c in right.children)
        right.access_count = inner.access_count // 2
        inner.access_count -= right.access_count
        self.memory_bytes += right.memory_bytes()
        self._charge(0, self._costs.node_alloc)
        self._insert_into_parent(inner, promoted, right, path)

    @staticmethod
    def _count_of(node: BNode) -> int:
        return node.leaf_count

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes) -> bool:
        path: list[tuple[BInner, int]] = []
        node = self._root
        visits = 0
        while isinstance(node, BInner):
            visits += 1
            slot = node.child_slot(key)
            path.append((node, slot))
            node = node.children[slot]
        visits += 1
        i = bisect.bisect_left(node.keys, key)
        if i >= len(node.keys) or node.keys[i] != key:
            self._charge(visits)
            return False
        self.memory_bytes -= len(node.values[i])
        del node.keys[i], node.values[i], node.entry_dirty[i]
        self.key_count -= 1
        for inner, __ in path:
            inner.leaf_count -= 1
        if not node.keys and path:
            self._remove_empty(node, path)
        self._charge(visits, self._costs.leaf_mutate)
        return True

    def _remove_empty(self, node: BNode, path: list[tuple[BInner, int]]) -> None:
        """Collapse empty nodes upward (lazy deletion)."""
        while path:
            parent, slot = path.pop()
            parent.children.pop(slot)
            if slot == 0:
                if parent.separators:
                    parent.separators.pop(0)
            else:
                parent.separators.pop(slot - 1)
            self.memory_bytes -= self._fixed_bytes(node)
            if parent.children:
                if len(parent.children) == 1 and not path:
                    # Root with a single child: hoist the child.
                    self.memory_bytes -= parent.memory_bytes()
                    self._root = parent.children[0]
                return
            node = parent
        # Every node vanished: reset to an empty leaf root.
        self.memory_bytes -= self._fixed_bytes(node)
        self._root = BLeaf(self.capacity)
        self.memory_bytes += self._root.memory_bytes()

    def _fixed_bytes(self, node: BNode) -> int:
        if isinstance(node, BLeaf):
            return node.memory_bytes() - sum(len(v) for v in node.values)
        return node.memory_bytes()

    # ------------------------------------------------------------------
    # ordered iteration
    # ------------------------------------------------------------------
    def items(self, start: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        for key, value, __ in self.iter_entries(self._root, start):
            yield key, value

    def iter_entries(
        self, node: BNode, start: bytes | None = None
    ) -> Iterator[tuple[bytes, bytes, bool]]:
        """Yield ``(key, value, dirty)`` under ``node`` in key order."""
        stack: list[BNode] = [node]
        while stack:
            current = stack.pop()
            if isinstance(current, BLeaf):
                for i, key in enumerate(current.keys):
                    if start is None or key >= start:
                        yield key, current.values[i], current.entry_dirty[i]
                continue
            if start is not None:
                slot = current.child_slot(start)
                stack.extend(reversed(current.children[slot:]))
            else:
                stack.extend(reversed(current.children))

    def iter_dirty_entries(self, node: BNode) -> Iterator[tuple[bytes, bytes]]:
        """Yield dirty ``(key, value)`` pairs, pruning clean subtrees."""
        stack: list[BNode] = [node]
        while stack:
            current = stack.pop()
            if not current.dirty:
                continue
            if isinstance(current, BLeaf):
                for i, key in enumerate(current.keys):
                    if current.entry_dirty[i]:
                        yield key, current.values[i]
                continue
            stack.extend(reversed(current.children))

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        if count <= 0:
            return []
        out: list[tuple[bytes, bytes]] = []
        for key, value in self.items(start):
            out.append((key, value))
            if len(out) >= count:
                break
        self._charge(len(out) // 8 + 2)
        return out

    # ------------------------------------------------------------------
    # framework hooks
    # ------------------------------------------------------------------
    @property
    def root(self) -> BNode:
        return self._root

    def enable_tracking(self, sample_every: int) -> None:
        self.tracking_enabled = True
        self.sample_every = sample_every

    def root_ref(self) -> BTreePartitionEntry:
        return BTreePartitionEntry(node=self._root, child_index=None, ancestors=[])

    def subtree_ref(self, node: BNode, ancestors: list[BInner]) -> BTreePartitionEntry:
        """The ref of ``node``, reached through ``ancestors`` (root first)."""
        index = ancestors[-1].children.index(node) if ancestors else None
        return BTreePartitionEntry(node=node, child_index=index, ancestors=ancestors)

    def child_refs(self, ref: BTreePartitionEntry) -> list[BTreePartitionEntry]:
        """All children qualify: B+ leaves carry the framework counters."""
        node = ref.node
        if not isinstance(node, BInner):
            return []
        ancestors = ref.ancestors + [node]
        return [
            BTreePartitionEntry(node=child, child_index=i, ancestors=ancestors)
            for i, child in enumerate(node.children)
        ]

    def partition(self, depth: int) -> list[BTreePartitionEntry]:
        """Disjoint subtrees at inner-node ``depth`` covering all keys."""
        entries: list[BTreePartitionEntry] = []

        def walk(node: BNode, idx: Optional[int], ancestors: list[BInner], d: int) -> None:
            if isinstance(node, BLeaf) or d >= depth:
                entries.append(
                    BTreePartitionEntry(node=node, child_index=idx, ancestors=list(ancestors))
                )
                return
            ancestors.append(node)
            for i, child in enumerate(node.children):
                walk(child, i, ancestors, d + 1)
            ancestors.pop()

        walk(self._root, None, [], 0)
        return entries

    def subtree_memory(self, node: BNode) -> int:
        total = 0
        stack: list[BNode] = [node]
        while stack:
            current = stack.pop()
            total += current.memory_bytes()
            if isinstance(current, BInner):
                stack.extend(current.children)
        return total

    def subtree_sizes(self, node: BNode) -> tuple[dict[BNode, int], dict[BInner, list[BNode]]]:
        """``subtree_memory`` of ``node`` and of every node below it (leaves
        carry counters here, so they are candidates too), and each inner
        node's children, from one walk."""
        sizes: dict[BNode, int] = {}
        children: dict[BInner, list[BNode]] = {}
        _size_subtrees(node, sizes, children)
        return sizes, children

    def clear_dirty(self, node: BNode) -> None:
        stack: list[BNode] = [node]
        while stack:
            current = stack.pop()
            current.dirty = False
            if isinstance(current, BLeaf):
                current.entry_dirty = [False] * len(current.keys)
            else:
                stack.extend(current.children)

    def detach(self, entry: BTreePartitionEntry) -> int:
        """Remove ``entry.node``'s subtree; returns the bytes it held.

        The caller has persisted its data.
        """
        node = entry.node
        removed = node.leaf_count
        removed_bytes = self.subtree_memory(node)
        parent = entry.parent
        if parent is None:
            self._root = BLeaf(self.capacity)
            self.memory_bytes -= removed_bytes
            self.memory_bytes += self._root.memory_bytes()
            self.key_count -= removed
            return removed_bytes
        slot = parent.children.index(node)
        parent.children.pop(slot)
        if slot == 0:
            if parent.separators:
                parent.separators.pop(0)
        else:
            parent.separators.pop(slot - 1)
        self.memory_bytes -= removed_bytes
        for ancestor in entry.ancestors:
            ancestor.leaf_count -= removed
        self.key_count -= removed
        if not parent.children:
            self._collapse_empty_inner(parent, entry.ancestors)
        self._charge(1, self._costs.lock_acquire)
        return removed_bytes

    def _collapse_empty_inner(self, node: BInner, ancestors: list[BInner]) -> None:
        chain = list(ancestors)
        while chain:
            parent = chain.pop()
            if parent is node:
                continue
            if node in parent.children:
                slot = parent.children.index(node)
                parent.children.pop(slot)
                if slot == 0:
                    if parent.separators:
                        parent.separators.pop(0)
                else:
                    parent.separators.pop(slot - 1)
                self.memory_bytes -= node.memory_bytes()
                if parent.children:
                    return
                node = parent
        # The whole tree is empty.
        self.memory_bytes -= node.memory_bytes()
        self._root = BLeaf(self.capacity)
        self.memory_bytes += self._root.memory_bytes()

    def reset_access_counts(self, node: BNode | None = None) -> None:
        stack: list[BNode] = [self._root if node is None else node]
        while stack:
            current = stack.pop()
            current.access_count = 0
            if isinstance(current, BInner):
                stack.extend(current.children)

    def __len__(self) -> int:
        return self.key_count


def _size_subtrees(
    node: BNode, sizes: dict[BNode, int], children: dict[BInner, list[BNode]]
) -> int:
    """Fill ``subtree_sizes``' memo below ``node``; returns its size (module
    level for the reason given at ART's ``_size_subtrees``)."""
    total = node.memory_bytes()
    if isinstance(node, BInner):
        for child in node.children:
            total += _size_subtrees(child, sizes, children)
        children[node] = node.children
    sizes[node] = total
    return total

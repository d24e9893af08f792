"""The adaptive radix tree.

Implements search / insert / delete / ordered scan with path compression and
adaptive node resizing, plus the hooks the IndeXY framework layers on top:

* per-path D-bit propagation on dirty inserts;
* sampled access/insert counters on inner nodes (temporal statistics for
  the access-density release policy);
* exact per-subtree leaf counts (the density denominator);
* key-space partitioning at a chosen depth (the pre-cleaner's inner-node
  list) and whole-subtree detach (the release mechanism).

Structural CPU work is charged to an optional :class:`~repro.sim.SimClock`
using :class:`~repro.sim.CostModel` unit costs, so simulated throughput
reflects real traversal counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Iterator, Optional

from repro.art.keys import common_prefix_length
from repro.art.nodes import (
    _EMBEDDABLE_VALUE_BYTES,
    ART_LEAF_OVERHEAD,
    Child,
    InnerNode,
    Leaf,
    Node4,
    Node16,
    Node256,
    new_node4,
)
from repro.sim.clock import SimClock
from repro.sim.costs import CostModel
from repro.sim.effects import charges

#: Fixed Node4 footprint, hoisted for the split fast paths.
_NODE4_BYTES = Node4().memory_bytes()


@dataclass
class PartitionEntry:
    """One subtree in a key-space partition at a fixed depth.

    ``ancestors`` is the path from the root down to (excluding) ``node``;
    ``byte`` is the child slot of ``node`` in its direct parent
    (``ancestors[-1]``).  ``low_key`` is the smallest full key currently in
    the subtree, used by the pre-cleaner to order write-backs.
    """

    node: InnerNode
    byte: Optional[int]
    ancestors: list[InnerNode] = field(default_factory=list)

    @property
    def parent(self) -> Optional[InnerNode]:
        return self.ancestors[-1] if self.ancestors else None


class AdaptiveRadixTree:
    """An ordered byte-key index with adaptive radix nodes.

    The root is always an inner node (initially an empty ``Node4``), which
    keeps parent bookkeeping uniform.  ``memory_bytes`` is maintained
    incrementally and matches the C-layout footprint of every live node, so
    the framework's watermark logic sees realistic sizes.
    """

    def __init__(
        self,
        clock: SimClock | None = None,
        costs: CostModel | None = None,
    ) -> None:
        self._root: InnerNode = Node4()
        self._clock = clock
        self._costs = costs or CostModel()
        # Hot-path accounting, decoupled from the per-visit work: the unit
        # cost and the charge target are resolved once, so each operation
        # pays a single bound-method call instead of per-node attribute
        # chains (the charged expression is unchanged — see _charge).
        self._visit_cost = self._costs.art_node_visit
        self._mutate_cost = self._costs.leaf_mutate
        self._alloc_cost = self._costs.node_alloc
        self._charge_fn: Optional[Callable[[float], None]] = (
            clock.charge_cpu if clock is not None else None
        )
        self.memory_bytes = self._root.memory_bytes()
        self.key_count = 0
        self.tracking_enabled = False
        self.sample_every = 1
        self._op_counter = 0
        #: invoked as ``on_node_replaced(old, new)`` when adaptive resizing
        #: swaps a node object (grow/shrink); observers keyed by node
        #: identity (e.g. the check-back auditor) re-key through this.
        self.on_node_replaced: Optional[Callable[[InnerNode, InnerNode], None]] = None

    # ------------------------------------------------------------------
    # cost charging
    # ------------------------------------------------------------------
    @charges("cpu_charge?")
    def _charge(self, visits: int, extra_ns: float = 0.0) -> None:
        # ``_charge_fn`` is bound once in __init__: to the clock's
        # charge_cpu, or to None for clockless fixtures.
        charge = self._charge_fn
        if charge is not None:
            charge(visits * self._visit_cost + extra_ns)

    def _should_sample(self) -> bool:
        if not self.tracking_enabled:
            return False
        self._op_counter += 1
        return self._op_counter % self.sample_every == 0

    # ------------------------------------------------------------------
    # search
    # ------------------------------------------------------------------
    def search(self, key: bytes) -> Optional[bytes]:
        """Return the value stored under ``key``, or ``None`` on a miss."""
        record = self.tracking_enabled and self._should_sample()
        node: Child = self._root
        depth = 0
        visits = 0
        key_len = len(key)
        while isinstance(node, InnerNode):
            visits += 1
            if record:
                node.access_count += 1
            prefix = node.prefix
            if prefix:
                # startswith(…, depth) is the sliceless spelling of
                # key[depth:depth+len(prefix)] == prefix (a too-short
                # remainder compares unequal either way).
                if not key.startswith(prefix, depth):
                    self._charge(visits)
                    return None
                depth += len(prefix)
            if depth >= key_len:
                self._charge(visits)
                return None
            # Monomorphic inline of node.child(): the layouts are final and
            # the descent is the hottest loop in the tree, so the dispatch
            # happens on the class identity rather than a method call.
            byte = key[depth]
            cls = node.__class__
            if cls is Node4 or cls is Node16:
                i = node._bytes.find(byte)
                nxt = node._children[i] if i >= 0 else None
            elif cls is Node256:
                nxt = node._children[byte]
            else:
                slot = node._index[byte]
                nxt = node._children[slot] if slot >= 0 else None
            if nxt is None:
                self._charge(visits)
                return None
            depth += 1
            node = nxt
        self._charge(visits, self._costs.key_compare)
        if node.key == key:
            return node.value
        return None

    def __contains__(self, key: bytes) -> bool:
        return self.search(key) is not None

    # ------------------------------------------------------------------
    # insert
    # ------------------------------------------------------------------
    def insert(self, key: bytes, value: bytes, dirty: bool = True) -> bool:
        """Insert or overwrite ``key``.

        Returns ``True`` if a new key was added, ``False`` on overwrite.
        ``dirty=False`` is used when reloading keys whose copy survives in
        Index Y (Section II-D): they must not trigger write-backs.
        """
        record = self.tracking_enabled and self._should_sample()
        # Single-pass bookkeeping: each node is speculatively marked
        # (dirty/activity/leaf_count) as the descent *leaves* it, so no
        # second walk — and no path list — is needed.  The one case that
        # must revisit ancestors, the leaf-count rollback on overwrite,
        # re-descends from the root instead (_rollback_new_key); it is as
        # cheap as the path walk it replaces and off the new-key hot path.
        # Deferred marking also keeps the prefix-split case sound — the
        # bypassed node is not yet marked when the junction takes its
        # place, so it keeps its pre-insert flags exactly as the two-pass
        # version left them.
        charge = self._charge_fn
        parent: Optional[InnerNode] = None
        parent_byte = 0
        node: InnerNode = self._root
        depth = 0
        visits = 0

        while True:
            visits += 1
            if record:
                node.insert_count += 1
            prefix = node.prefix
            if prefix:
                if not key.startswith(prefix, depth):
                    match = common_prefix_length(key[depth:], prefix)
                    junction = self._split_prefix(
                        parent, parent_byte, node, key, depth, match, value, dirty
                    )
                    # The new leaf hangs off the junction, not off ``node``:
                    # the junction (not the bypassed node) joins the marked
                    # path for the new key.
                    if dirty:
                        junction.dirty = True
                        junction.activity = True
                    junction.leaf_count += 1
                    self.key_count += 1
                    if charge is not None:
                        charge(visits * self._visit_cost + self._mutate_cost)
                    return True
                depth += len(prefix)
            # Same monomorphic child dispatch as in search().  The sorted
            # layouts come first: in a populated tree the lower levels are
            # overwhelmingly Node4/Node16, so most visits take the first
            # branch (the big layouts sit near the root, once per path).
            byte = key[depth]
            cls = node.__class__
            if cls is Node4 or cls is Node16:
                i = node._bytes.find(byte)
                child = node._children[i] if i >= 0 else None
            elif cls is Node256:
                child = node._children[byte]
            else:
                slot = node._index[byte]
                child = node._children[slot] if slot >= 0 else None
            if child is None:
                # Leaf.__new__ + direct stores: skips the __init__ frame on
                # the per-new-key allocation.
                leaf = Leaf.__new__(Leaf)
                leaf.key = key
                leaf.value = value
                leaf.dirty = dirty
                if cls is Node256:
                    node._children[byte] = leaf
                    node._count += 1
                else:
                    if node.is_full():
                        node = self._grow_node(parent, parent_byte, node)
                    node.set_child(byte, leaf)
                if len(value) > _EMBEDDABLE_VALUE_BYTES:
                    self.memory_bytes += ART_LEAF_OVERHEAD + len(value)
                if dirty:
                    node.dirty = True
                    node.activity = True
                node.leaf_count += 1
                self.key_count += 1
                if charge is not None:
                    charge(visits * self._visit_cost + self._mutate_cost)
                return True
            if child.__class__ is Leaf:
                if child.key == key:
                    # Leaf footprint is nonlinear in the value length (short
                    # values embed in the pointer word), so account via the
                    # before/after footprint, not the length delta.
                    before = child.memory_bytes()
                    child.value = value
                    self.memory_bytes += child.memory_bytes() - before
                    child.dirty = child.dirty or dirty
                    if dirty:
                        node.dirty = True
                        node.activity = True
                    if node is not self._root:
                        self._rollback_new_key(key, node)
                    if charge is not None:
                        charge(visits * self._visit_cost + self._mutate_cost)
                    return False
                junction = self._split_leaf(node, byte, child, key, value, depth + 1, dirty)
                if dirty:
                    node.dirty = True
                    node.activity = True
                    junction.dirty = True
                    junction.activity = True
                node.leaf_count += 1
                junction.leaf_count += 1
                self.key_count += 1
                if charge is not None:
                    charge(visits * self._visit_cost + self._mutate_cost)
                return True
            if dirty:
                node.dirty = True
                node.activity = True
            node.leaf_count += 1
            parent, parent_byte = node, byte
            node = child
            depth += 1

    def _rollback_new_key(self, key: bytes, stop: InnerNode) -> None:
        """Undo the speculative leaf-count bumps above ``stop`` (overwrite).

        The descent marked every node it *left*; on an overwrite those
        bumps are wrong, so retrace the (unchanged) path from the root and
        decrement every ancestor strictly above ``stop``.
        """
        node: InnerNode = self._root
        depth = 0
        while node is not stop:
            node.leaf_count -= 1
            depth += len(node.prefix) + 1
            child = node.child(key[depth - 1])
            assert isinstance(child, InnerNode)
            node = child

    def _grow_node(
        self,
        parent: Optional[InnerNode],
        parent_byte: int,
        node: InnerNode,
    ) -> InnerNode:
        """Replace a full ``node`` with the next-larger layout."""
        grown = node.grown()
        self.memory_bytes += grown.memory_bytes() - node.memory_bytes()
        self._replace_child(parent, parent_byte, node, grown)
        if self.on_node_replaced is not None:
            self.on_node_replaced(node, grown)
        # ``_charge(0, x)`` charges exactly ``0.0 + x == x``; call through
        # directly to skip the wrapper frame on the grow path.
        charge = self._charge_fn
        if charge is not None:
            charge(self._alloc_cost)
        return grown

    def _replace_child(
        self,
        parent: Optional[InnerNode],
        parent_byte: int,
        old: InnerNode,
        new: InnerNode,
    ) -> None:
        if parent is None:
            assert old is self._root
            self._root = new
        else:
            parent.set_child(parent_byte, new)

    def _split_prefix(
        self,
        parent: Optional[InnerNode],
        parent_byte: int,
        node: InnerNode,
        key: bytes,
        depth: int,
        match: int,
        value: bytes,
        dirty: bool,
    ) -> Node4:
        """Split ``node``'s compressed prefix at ``match`` and add a leaf.

        Returns the new junction node (caller fixes up leaf counting; the
        junction enters with ``node``'s count and is bumped by
        the caller for the new leaf).
        """
        prefix = node.prefix
        leaf = Leaf.__new__(Leaf)
        leaf.key = key
        leaf.value = value
        leaf.dirty = dirty
        junction = new_node4(prefix[:match], prefix[match], node, key[depth + match], leaf)
        junction.leaf_count = node.leaf_count
        junction.dirty = node.dirty
        node.prefix = prefix[match + 1 :]
        self._replace_child(parent, parent_byte, node, junction)
        if len(value) > _EMBEDDABLE_VALUE_BYTES:
            self.memory_bytes += _NODE4_BYTES + ART_LEAF_OVERHEAD + len(value)
        else:
            self.memory_bytes += _NODE4_BYTES
        charge = self._charge_fn
        if charge is not None:
            charge(self._alloc_cost)
        return junction

    def _split_leaf(
        self,
        node: InnerNode,
        byte: int,
        existing: Leaf,
        key: bytes,
        value: bytes,
        depth: int,
        dirty: bool,
    ) -> Node4:
        """Replace a leaf slot with a Node4 holding both the old and new leaf.

        Returns the junction; it enters counting only the existing leaf and
        is bumped to two by the caller.
        """
        # Inline suffix matching: the suffixes differ at their first byte
        # with overwhelming probability (they already share the radix path
        # down to ``depth``), so a direct scan beats slicing both keys.
        existing_key = existing.key
        limit = min(len(existing_key), len(key))
        match = depth
        while match < limit and existing_key[match] == key[match]:
            match += 1
        leaf = Leaf.__new__(Leaf)
        leaf.key = key
        leaf.value = value
        leaf.dirty = dirty
        junction = new_node4(key[depth:match], existing_key[match], existing, key[match], leaf)
        junction.leaf_count = 1
        junction.dirty = existing.dirty
        node.set_child(byte, junction)
        if len(value) > _EMBEDDABLE_VALUE_BYTES:
            self.memory_bytes += _NODE4_BYTES + ART_LEAF_OVERHEAD + len(value)
        else:
            self.memory_bytes += _NODE4_BYTES
        charge = self._charge_fn
        if charge is not None:
            charge(self._alloc_cost)
        return junction

    # ------------------------------------------------------------------
    # delete
    # ------------------------------------------------------------------
    def delete(self, key: bytes) -> bool:
        """Remove ``key``; returns ``True`` if it was present."""
        path: list[tuple[InnerNode, int]] = []  # (node, byte taken from it)
        node: InnerNode = self._root
        depth = 0
        visits = 0
        while True:
            visits += 1
            prefix = node.prefix
            if prefix:
                if not key.startswith(prefix, depth):
                    self._charge(visits)
                    return False
                depth += len(prefix)
            if depth >= len(key):
                self._charge(visits)
                return False
            byte = key[depth]
            child = node.child(byte)
            if child is None:
                self._charge(visits)
                return False
            if isinstance(child, Leaf):
                if child.key != key:
                    self._charge(visits)
                    return False
                node.remove_child(byte)
                self.memory_bytes -= child.memory_bytes()
                self.key_count -= 1
                for ancestor, __ in path:
                    ancestor.leaf_count -= 1
                node.leaf_count -= 1
                self._collapse(path, node)
                self._charge(visits, self._costs.leaf_mutate)
                return True
            path.append((node, byte))
            node = child
            depth += 1

    def _collapse(self, path: list[tuple[InnerNode, int]], node: InnerNode) -> None:
        """Path-compress or shrink nodes after a removal."""
        while True:
            parent_entry = path[-1] if path else None
            if node.num_children == 0 and node is not self._root:
                parent, parent_byte = parent_entry  # type: ignore[misc]
                parent.remove_child(parent_byte)
                self.memory_bytes -= node.memory_bytes()
                path.pop()
                node = parent
                continue
            if node.num_children == 1 and node is not self._root:
                # Merge the single child upward (path compression).
                (byte, only_child) = node.children_items()[0]
                parent, parent_byte = parent_entry  # type: ignore[misc]
                if isinstance(only_child, InnerNode):
                    only_child.prefix = node.prefix + bytes([byte]) + only_child.prefix
                parent.set_child(parent_byte, only_child)
                self.memory_bytes -= node.memory_bytes()
                path.pop()
                node = parent
                continue
            shrunk = self._maybe_shrink(node)
            if shrunk is not node:
                if parent_entry is None:
                    self._root = shrunk
                else:
                    parent, parent_byte = parent_entry
                    parent.set_child(parent_byte, shrunk)
            break

    def _maybe_shrink(self, node: InnerNode) -> InnerNode:
        # Hysteresis: only shrink once comfortably under the smaller layout.
        threshold = node.SHRINK_CAPACITY
        if threshold is None or node.num_children > max(1, threshold - 1):
            return node
        smaller = node.shrunk()
        self.memory_bytes += smaller.memory_bytes() - node.memory_bytes()
        if self.on_node_replaced is not None:
            self.on_node_replaced(node, smaller)
        return smaller

    # ------------------------------------------------------------------
    # ordered iteration
    # ------------------------------------------------------------------
    # Every ordered walk is a stack of subtrees, the next smallest on top:
    # popping an inner node pushes its ordered children largest first.
    def _seek(self, start: bytes) -> list[Child]:
        """The walk stack holding exactly the keys >= ``start``.

        One descent along ``start``: where a compressed prefix diverges
        from it, the node's whole subtree is kept if it sorts above
        ``start`` and dropped if below, and the descent ends; otherwise
        the node's children after ``start``'s byte are pushed and the
        descent follows the child at that byte.  Siblings pushed deeper
        sort below those pushed higher up, so the stack stays ordered.
        """
        stack: list[Child] = []
        node: Child = self._root
        depth = 0
        while isinstance(node, InnerNode):
            prefix = node.prefix
            if prefix:
                end = depth + len(prefix)
                if not start.startswith(prefix, depth):
                    if start[depth:end] < prefix:
                        stack.append(node)
                    return stack
                depth = end
            if depth >= len(start):
                stack.append(node)  # every key below extends ``start``
                return stack
            byte = start[depth]
            stack.extend(reversed(node.children_after(byte)))
            nxt = node.child(byte)
            if nxt is None:
                return stack
            node = nxt
            depth += 1
        if node.key >= start:
            stack.append(node)
        return stack

    def _walk(self, stack: list[Child]) -> Iterator[Leaf]:
        """Yield the leaves of the subtrees on ``stack`` in key order."""
        pop = stack.pop
        push = stack.extend
        while stack:
            current = pop()
            if isinstance(current, Leaf):
                yield current
            else:
                push(reversed(current.ordered_children()))

    def items(self, start: bytes | None = None) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` in ascending key order, from ``start``."""
        stack: list[Child] = [self._root] if start is None else self._seek(start)
        for leaf in self._walk(stack):
            yield leaf.key, leaf.value

    def iter_leaves(self, node: Child) -> Iterator[Leaf]:
        """Yield the leaves under ``node`` in key order."""
        return self._walk([node])

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        """Return up to ``count`` pairs with key >= ``start`` in order.

        Charges ``len(out) + 1`` node visits wherever ``start`` lands: the
        seek is host work the cost model does not see.
        """
        if count <= 0:
            return []
        out = [(leaf.key, leaf.value) for leaf in islice(self._walk(self._seek(start)), count)]
        self._charge(len(out) + 1)
        return out

    # ------------------------------------------------------------------
    # framework hooks
    # ------------------------------------------------------------------
    @property
    def root(self) -> InnerNode:
        return self._root

    def enable_tracking(self, sample_every: int) -> None:
        self.tracking_enabled = True
        self.sample_every = sample_every

    def root_ref(self) -> PartitionEntry:
        return PartitionEntry(node=self._root, byte=None, ancestors=[])

    def subtree_ref(self, node: InnerNode, ancestors: list[InnerNode]) -> PartitionEntry:
        """The ref of ``node``, reached through ``ancestors`` (root first)."""
        byte = ancestors[-1].byte_of(node) if ancestors else None
        return PartitionEntry(node=node, byte=byte, ancestors=ancestors)

    def child_refs(self, ref: PartitionEntry) -> list[PartitionEntry]:
        """Children usable as release candidates (inner nodes only: ART
        leaves carry no counters and are individually negligible)."""
        node = ref.node
        ancestors = ref.ancestors + [node]
        return [
            PartitionEntry(node=child, byte=byte, ancestors=ancestors)
            for byte, child in node.children_items()
            if isinstance(child, InnerNode)
        ]

    def partition(self, depth: int) -> list[PartitionEntry]:
        """Partition the key space into subtrees at inner-node ``depth``.

        Returns the inner nodes reached by descending ``depth`` hops from
        the root (depth 0 is the root itself).  Branches shallower than
        ``depth``, and nodes that hold leaves directly, stop early and
        contribute themselves, so the entries are disjoint and always cover
        the whole key space (this is the pre-cleaner's "inner node list",
        Section II-B).
        """
        entries: list[PartitionEntry] = []

        def walk(node: InnerNode, byte: Optional[int], ancestors: list[InnerNode], d: int) -> None:
            has_leaf_child = False
            inner_children = []
            for b, c in node.children_items():
                if isinstance(c, InnerNode):
                    inner_children.append((b, c))
                else:
                    has_leaf_child = True
            if d >= depth or has_leaf_child or not inner_children:
                entries.append(PartitionEntry(node=node, byte=byte, ancestors=list(ancestors)))
                return
            ancestors.append(node)
            for b, c in inner_children:
                walk(c, b, ancestors, d + 1)
            ancestors.pop()

        walk(self._root, None, [], 0)
        return entries

    def subtree_memory(self, node: Child) -> int:
        """Total C-layout footprint of the subtree rooted at ``node``.

        Runs once per release-policy candidate, so the walk is tuned:
        unordered ``children_values`` traversal with the embedded-leaf
        footprint rule inlined (an int sum is order-independent).
        """
        total = 0
        stack: list[Child] = [node]
        pop = stack.pop
        push = stack.extend
        while stack:
            current = pop()
            if isinstance(current, InnerNode):
                total += current.memory_bytes()
                push(current.children_values())
            elif len(current.value) > _EMBEDDABLE_VALUE_BYTES:
                total += ART_LEAF_OVERHEAD + len(current.value)
        return total

    def subtree_sizes(
        self, node: InnerNode
    ) -> tuple[dict[InnerNode, int], dict[InnerNode, list[InnerNode]]]:
        """``subtree_memory`` of ``node`` and of every inner node below it,
        and each one's inner children in key order, from one walk.

        Release selection sizes all its candidates from this memo instead
        of walking each candidate's subtree again.
        """
        sizes: dict[InnerNode, int] = {}
        children: dict[InnerNode, list[InnerNode]] = {}
        _size_subtrees(node, sizes, children)
        return sizes, children

    def iter_dirty_leaves(self, node: Child) -> Iterator[Leaf]:
        """Yield dirty leaves under ``node`` in key order, pruning clean subtrees."""
        stack: list[Child] = [node]
        pop = stack.pop
        push = stack.extend
        while stack:
            current = pop()
            if not current.dirty:
                continue
            if isinstance(current, Leaf):
                yield current
            else:
                push(reversed(current.ordered_children()))

    def iter_dirty_entries(self, node: Child) -> Iterator[tuple[bytes, bytes]]:
        """Yield dirty ``(key, value)`` pairs under ``node`` in key order."""
        for leaf in self.iter_dirty_leaves(node):
            yield leaf.key, leaf.value

    def clear_dirty(self, node: Child) -> None:
        """Clear D bits and leaf dirty flags in the whole subtree."""
        stack: list[Child] = [node]
        pop = stack.pop
        push = stack.extend
        while stack:
            current = pop()
            current.dirty = False
            if isinstance(current, InnerNode):
                push(current.children_values())

    def detach(self, entry: PartitionEntry) -> int:
        """Remove ``entry.node``'s subtree; returns the bytes it held.

        The caller is responsible for having persisted its dirty leaves.
        Leaf counts and the memory account are adjusted up the ancestor
        chain; detaching the root is expressed as replacing it with an empty
        node.
        """
        node = entry.node
        removed_leaves = node.leaf_count
        removed_bytes = self.subtree_memory(node)
        if entry.parent is None:
            self._root = Node4()
            self.memory_bytes -= removed_bytes
            self.memory_bytes += self._root.memory_bytes()
        else:
            assert entry.byte is not None
            entry.parent.remove_child(entry.byte)
            self.memory_bytes -= removed_bytes
            for ancestor in entry.ancestors:
                ancestor.leaf_count -= removed_leaves
        self.key_count -= removed_leaves
        self._charge(1, self._costs.lock_acquire)
        return removed_bytes

    def reset_access_counts(self, node: Child | None = None) -> None:
        """Zero access counters in a subtree (after a release, Section II-C)."""
        stack: list[Child] = [self._root if node is None else node]
        pop = stack.pop
        push = stack.extend
        while stack:
            current = pop()
            if isinstance(current, InnerNode):
                current.access_count = 0
                push(current.children_values())

    def __len__(self) -> int:
        return self.key_count


def _size_subtrees(
    node: InnerNode, sizes: dict[InnerNode, int], children: dict[InnerNode, list[InnerNode]]
) -> int:
    """Fill ``subtree_sizes``' memo below ``node``; returns its size.

    Module level, not a closure: a nested function that calls itself holds
    a reference cycle to the memo, which outlives the selection when the
    garbage collector is off.
    """
    total = node.memory_bytes()
    inner = []
    for child in node.ordered_children():
        if isinstance(child, InnerNode):
            inner.append(child)
            total += _size_subtrees(child, sizes, children)
        elif len(child.value) > _EMBEDDABLE_VALUE_BYTES:
            total += ART_LEAF_OVERHEAD + len(child.value)
    sizes[node] = total
    children[node] = inner
    return total

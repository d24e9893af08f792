"""ART node types.

Four adaptive inner-node layouts (Node4, Node16, Node48, Node256) and a
single-value leaf, following Leis et al.  Every inner node carries the
framework bookkeeping the paper asks Index X to host (Section II-B/II-C):

* ``dirty`` — some leaf under this node holds unflushed data (used to
  locate and collect dirty keys; never cleared until the data is written);
* ``activity`` — the check-back D bit of Figure 2: set on every insert,
  cleared by the pre-cleaning scan to detect insert-hot regions.  The paper
  overloads one D bit for both roles; splitting them keeps dirty-subtree
  pruning sound while the scan manipulates the activity view;
* ``clean_candidate`` — the C bit used by the check-back pre-cleaning scan;
* ``access_count`` — sampled count of searches that crossed this node;
* ``insert_count`` — sampled count of inserts that crossed this node;
* ``leaf_count`` — exact number of leaves in the subtree (the denominator
  of the access-density ratio).

``memory_bytes`` reports the footprint the node would have in the C
implementation (the numbers from the ART paper), so the framework's memory
budget behaves like the real system's: ART stays far more compact than
page-based B+ trees, which is what lets ART-X systems hold more keys before
hitting the limit (Figure 3 discussion).
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Optional, Union

#: Header bytes shared by every inner node in the C layout
#: (type tag, child count, prefix length, prefix buffer) plus the 2–4 bytes
#: the framework borrows for its bits and sampled counters.
_INNER_HEADER_BYTES = 16 + 4

#: Leaf overhead when the value cannot be embedded in the pointer slot
#: (allocation header + length fields).
ART_LEAF_OVERHEAD = 16

_POINTER_BYTES = 8

#: Values at most this long are stored via pointer tagging directly in the
#: parent's child slot -- no leaf allocation at all.  This is the
#: "single-value leaves" optimization of Leis et al.: for fixed 8-byte
#: values (the paper's microbenchmark setup) the index adds only the radix
#: structure itself per key, which is why ART-X systems hold visibly more
#: keys than page-based B+ trees before the memory limit (Figure 3b/3d
#: discussion).  The key needs no leaf storage either: it is implicit in
#: the radix path and verified against the referenced tuple.
_EMBEDDABLE_VALUE_BYTES = 8


class Leaf:
    """A single key/value pair.

    ``dirty`` marks data not yet persisted in Index Y; keys loaded back from
    Index Y are inserted clean because their copy in Y survives (Section
    II-D).
    """

    __slots__ = ("key", "value", "dirty")

    def __init__(self, key: bytes, value: bytes, dirty: bool = True) -> None:
        self.key = key
        self.value = value
        self.dirty = dirty

    def memory_bytes(self) -> int:
        if len(self.value) <= _EMBEDDABLE_VALUE_BYTES:
            return 0  # pointer-tagged: lives in the parent's child slot
        return ART_LEAF_OVERHEAD + len(self.value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Leaf({self.key!r}, dirty={self.dirty})"


class InnerNode:
    """Common behaviour of the four adaptive node layouts.

    ``children_values`` exists for accumulation walks (memory sums, flag
    sweeps) that do not care about key order: it skips the per-child
    ``(byte, child)`` tuple of ``children_items`` and, on the indexed
    layouts, iterates raw slots instead of 256 byte probes.
    ``ordered_children`` and ``children_after`` are the ordered walks'
    counterparts: the children in ascending byte order, all of them or
    those past one byte.  Callers must treat the returned lists as
    read-only — the sorted layouts may return their internal child list.
    """

    __slots__ = (
        "prefix",
        "dirty",
        "activity",
        "clean_candidate",
        "access_count",
        "insert_count",
        "leaf_count",
    )

    #: Maximum number of children before the node must grow.
    CAPACITY = 0

    #: Capacity of the next-smaller layout (None when already smallest);
    #: the tree shrinks a node only when its children fit comfortably.
    SHRINK_CAPACITY: int | None = None

    def __init__(self, prefix: bytes = b"") -> None:
        self.prefix = prefix
        self.dirty = False
        self.activity = False
        self.clean_candidate = False
        self.access_count = 0
        self.insert_count = 0
        self.leaf_count = 0

    # -- child access -------------------------------------------------
    def child(self, byte: int) -> Optional["Child"]:
        raise NotImplementedError

    def set_child(self, byte: int, child: "Child") -> None:
        """Insert or replace the child slot for ``byte``.

        Raises ``RuntimeError`` if the node is full and ``byte`` is new;
        callers grow the node first.
        """
        raise NotImplementedError

    def remove_child(self, byte: int) -> None:
        raise NotImplementedError

    def children_items(self) -> list[tuple[int, "Child"]]:
        """The ``(byte, child)`` pairs in ascending byte order."""
        raise NotImplementedError

    def ordered_children(self) -> list["Child"]:
        """The children in ascending byte order."""
        raise NotImplementedError

    def byte_of(self, child: "Child") -> int:
        """The byte of the slot holding ``child`` (by identity)."""
        raise NotImplementedError

    def children_after(self, byte: int) -> list["Child"]:
        """The children whose byte is greater than ``byte``, ascending."""
        raise NotImplementedError

    @property
    def num_children(self) -> int:
        raise NotImplementedError

    def is_full(self) -> bool:
        return self.num_children >= self.CAPACITY

    def memory_bytes(self) -> int:
        raise NotImplementedError

    # -- adaptive resizing ---------------------------------------------
    def grown(self) -> "InnerNode":
        """Return the next-larger layout holding the same children."""
        raise NotImplementedError

    def shrunk(self) -> "InnerNode":
        """Return the next-smaller layout holding the same children."""
        raise NotImplementedError

    def _copy_meta_from(self, other: "InnerNode") -> None:
        self.prefix = other.prefix
        self.dirty = other.dirty
        self.activity = other.activity
        self.clean_candidate = other.clean_candidate
        self.access_count = other.access_count
        self.insert_count = other.insert_count
        self.leaf_count = other.leaf_count

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"{type(self).__name__}(prefix={self.prefix!r}, "
            f"children={self.num_children}, leaves={self.leaf_count})"
        )


Child = Union[InnerNode, Leaf]


class _SortedArrayNode(InnerNode):
    """Shared implementation of Node4 and Node16: sorted parallel arrays.

    The key array is a ``bytearray`` so child lookup is one C-level
    ``find`` — the Python analogue of the SIMD byte scan in the C
    implementation of Leis et al.
    """

    __slots__ = ("_bytes", "_children")

    def __init__(self, prefix: bytes = b"") -> None:
        # Flattened (no super() chain): leaf splits allocate one of these
        # per structural change, so construction is hot.
        self.prefix = prefix
        self.dirty = False
        self.activity = False
        self.clean_candidate = False
        self.access_count = 0
        self.insert_count = 0
        self.leaf_count = 0
        self._bytes = bytearray()
        self._children: list[Child] = []

    def child(self, byte: int) -> Optional[Child]:
        i = self._bytes.find(byte)
        return self._children[i] if i >= 0 else None

    def set_child(self, byte: int, child: Child) -> None:
        keys = self._bytes
        i = keys.find(byte)
        if i >= 0:
            self._children[i] = child
            return
        if len(keys) >= self.CAPACITY:
            raise RuntimeError("node full; grow before inserting")
        i = bisect_right(keys, byte)
        keys.insert(i, byte)
        self._children.insert(i, child)

    def remove_child(self, byte: int) -> None:
        i = self._bytes.find(byte)
        if i < 0:
            raise KeyError(byte)
        del self._bytes[i]
        del self._children[i]

    def is_full(self) -> bool:
        return len(self._bytes) >= self.CAPACITY

    def init_two_children(self, byte_a: int, child_a: Child, byte_b: int, child_b: Child) -> None:
        """Populate an empty node with two children in one shot (leaf splits)."""
        if byte_a < byte_b:
            self._bytes = bytearray((byte_a, byte_b))
            self._children = [child_a, child_b]
        else:
            self._bytes = bytearray((byte_b, byte_a))
            self._children = [child_b, child_a]

    def children_items(self) -> list[tuple[int, Child]]:
        return list(zip(self._bytes, self._children, strict=True))

    def children_values(self) -> list[Child]:
        return self._children

    def byte_of(self, child: Child) -> int:
        return self._bytes[self._children.index(child)]

    def ordered_children(self) -> list[Child]:
        return self._children

    def children_after(self, byte: int) -> list[Child]:
        return self._children[bisect_right(self._bytes, byte) :]

    @property
    def num_children(self) -> int:
        return len(self._bytes)


_NODE4_BYTES = _INNER_HEADER_BYTES + 4 + 4 * _POINTER_BYTES  # 56 B
_NODE16_BYTES = _INNER_HEADER_BYTES + 16 + 16 * _POINTER_BYTES  # 164 B
_NODE48_BYTES = _INNER_HEADER_BYTES + 256 + 48 * _POINTER_BYTES  # 660 B
_NODE256_BYTES = _INNER_HEADER_BYTES + 256 * _POINTER_BYTES  # 2068 B


class Node4(_SortedArrayNode):
    CAPACITY = 4

    def memory_bytes(self) -> int:
        return _NODE4_BYTES

    def grown(self) -> "Node16":
        node = Node16()
        node._copy_meta_from(self)
        node._bytes = bytearray(self._bytes)
        node._children = list(self._children)
        return node

    def shrunk(self) -> "Node4":
        return self


def new_node4(prefix: bytes, byte_a: int, child_a: Child, byte_b: int, child_b: Child) -> Node4:
    """Allocate a two-child Node4 in one step.

    Equivalent to ``Node4(prefix=prefix)`` followed by
    ``init_two_children`` but without the throwaway empty arrays and the
    extra call frame — leaf and prefix splits allocate one of these per
    structural change, so construction is hot.
    """
    node = Node4.__new__(Node4)
    node.prefix = prefix
    node.dirty = False
    node.activity = False
    node.clean_candidate = False
    node.access_count = 0
    node.insert_count = 0
    node.leaf_count = 0
    if byte_a < byte_b:
        node._bytes = bytearray((byte_a, byte_b))
        node._children = [child_a, child_b]
    else:
        node._bytes = bytearray((byte_b, byte_a))
        node._children = [child_b, child_a]
    return node


class Node16(_SortedArrayNode):
    CAPACITY = 16
    SHRINK_CAPACITY = 4

    def memory_bytes(self) -> int:
        return _NODE16_BYTES

    def grown(self) -> "Node48":
        # Direct layout build: ``_bytes`` is sorted, so assigning slots in
        # array order gives exactly the slot assignment the per-child
        # ``set_child`` loop would (next free slot, ascending byte).
        node = Node48.__new__(Node48)
        node._copy_meta_from(self)
        index = [-1] * 256
        for slot, byte in enumerate(self._bytes):
            index[byte] = slot
        node._index = index
        children: list[Optional[Child]] = list(self._children)
        children.extend([None] * (Node48.CAPACITY - len(children)))
        node._children = children
        node._count = len(self._bytes)
        return node

    def shrunk(self) -> "Node4":
        node = Node4()
        node._copy_meta_from(self)
        node._bytes = bytearray(self._bytes)
        node._children = list(self._children)
        return node


class Node48(InnerNode):
    """256-entry byte index into a 48-slot child array."""

    CAPACITY = 48
    SHRINK_CAPACITY = 16
    __slots__ = ("_index", "_children", "_count")

    def __init__(self, prefix: bytes = b"") -> None:
        super().__init__(prefix)
        self._index: list[int] = [-1] * 256
        self._children: list[Optional[Child]] = [None] * self.CAPACITY
        self._count = 0

    def child(self, byte: int) -> Optional[Child]:
        slot = self._index[byte]
        return None if slot < 0 else self._children[slot]

    def set_child(self, byte: int, child: Child) -> None:
        slot = self._index[byte]
        if slot >= 0:
            self._children[slot] = child
            return
        if self.is_full():
            raise RuntimeError("node full; grow before inserting")
        slot = self._children.index(None)
        self._index[byte] = slot
        self._children[slot] = child
        self._count += 1

    def remove_child(self, byte: int) -> None:
        slot = self._index[byte]
        if slot < 0:
            raise KeyError(byte)
        self._index[byte] = -1
        self._children[slot] = None
        self._count -= 1

    def children_items(self) -> list[tuple[int, Child]]:
        own = self._children
        return [
            (byte, c) for byte, slot in enumerate(self._index) if slot >= 0 if (c := own[slot]) is not None
        ]

    def children_values(self) -> list[Child]:
        # Slot order, not key order: only for order-insensitive walks.
        return [c for c in self._children if c is not None]

    def byte_of(self, child: Child) -> int:
        return self._index.index(self._children.index(child))

    def ordered_children(self) -> list[Child]:
        own = self._children
        return [c for slot in self._index if slot >= 0 if (c := own[slot]) is not None]

    def children_after(self, byte: int) -> list[Child]:
        own = self._children
        return [c for slot in self._index[byte + 1 :] if slot >= 0 if (c := own[slot]) is not None]

    @property
    def num_children(self) -> int:
        return self._count

    def is_full(self) -> bool:
        return self._count >= self.CAPACITY

    def memory_bytes(self) -> int:
        return _NODE48_BYTES

    def grown(self) -> "Node256":
        node = Node256.__new__(Node256)
        node._copy_meta_from(self)
        children: list[Optional[Child]] = [None] * 256
        index = self._index
        own = self._children
        for byte in range(256):
            slot = index[byte]
            if slot >= 0:
                children[byte] = own[slot]
        node._children = children
        node._count = self._count
        return node

    def shrunk(self) -> "Node16":
        node = Node16()
        node._copy_meta_from(self)
        for byte, child in self.children_items():
            node.set_child(byte, child)
        return node


class Node256(InnerNode):
    """Direct 256-entry child array."""

    CAPACITY = 256
    SHRINK_CAPACITY = 48
    __slots__ = ("_children", "_count")

    def __init__(self, prefix: bytes = b"") -> None:
        super().__init__(prefix)
        self._children: list[Optional[Child]] = [None] * 256
        self._count = 0

    def child(self, byte: int) -> Optional[Child]:
        return self._children[byte]

    def set_child(self, byte: int, child: Child) -> None:
        if self._children[byte] is None:
            self._count += 1
        self._children[byte] = child

    def remove_child(self, byte: int) -> None:
        if self._children[byte] is None:
            raise KeyError(byte)
        self._children[byte] = None
        self._count -= 1

    def children_items(self) -> list[tuple[int, Child]]:
        return [(byte, child) for byte, child in enumerate(self._children) if child is not None]

    def children_values(self) -> list[Child]:
        return [c for c in self._children if c is not None]

    def byte_of(self, child: Child) -> int:
        return self._children.index(child)

    def ordered_children(self) -> list[Child]:
        # Byte-indexed, so slot order is key order.
        return [c for c in self._children if c is not None]

    def children_after(self, byte: int) -> list[Child]:
        return [c for c in self._children[byte + 1 :] if c is not None]

    @property
    def num_children(self) -> int:
        return self._count

    def is_full(self) -> bool:
        return self._count >= self.CAPACITY

    def memory_bytes(self) -> int:
        return _NODE256_BYTES

    def grown(self) -> "Node256":
        return self

    def shrunk(self) -> "Node48":
        node = Node48()
        node._copy_meta_from(self)
        for byte, child in self.children_items():
            node.set_child(byte, child)
        return node

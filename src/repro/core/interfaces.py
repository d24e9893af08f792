"""Protocols connecting Index X, Index Y, and the framework.

The paper's design goal is *decoupling*: the framework must accept any
order-preserving in-memory index and any on-disk index without either
knowing about the other.  These protocols are that contract.

``SubtreeRef`` is the framework's handle on a subtree of Index X: an
opaque node plus enough parent context to detach it.  Both trees
(:class:`~repro.art.AdaptiveRadixTree`, :class:`~repro.btree.BPlusTree`)
satisfy ``IndexX`` themselves, and their partition-entry types satisfy
``SubtreeRef``, structurally.
"""

from __future__ import annotations

from typing import Iterator, Optional, Protocol, runtime_checkable


@runtime_checkable
class SubtreeNode(Protocol):
    """What the framework reads and writes on an Index X inner node.

    This is the "extra 2–4 bytes" the paper asks of Index X inner nodes
    (Section III-G): the D bit, the C bit, sampled counters, and a subtree
    size estimate (exact here).  ``activity`` is the check-back protocol's
    D bit (set on every dirty insert, cleared by the pre-cleaner's scan);
    ``dirty`` tracks real unflushed data.
    """

    dirty: bool
    activity: bool
    clean_candidate: bool
    access_count: int

    @property
    def leaf_count(self) -> int: ...


@runtime_checkable
class SubtreeRef(Protocol):
    """A detachable subtree: the node plus its ancestor context."""

    @property
    def node(self) -> SubtreeNode: ...


class IndexX(Protocol):
    """The in-memory index as the framework sees it.

    The ordered trees (ART, B+) implement this directly: the framework's
    hooks live inside Index X (Section III-A).  Whole-subtree members that
    need parent context (``child_refs``, ``detach``) take the ref, and
    ``subtree_ref`` builds one from a node and its ancestors; the rest
    take the ref's node.
    """

    # -- key-value operations -----------------------------------------
    def insert(self, key: bytes, value: bytes, dirty: bool = True) -> bool: ...

    def search(self, key: bytes) -> Optional[bytes]: ...

    def delete(self, key: bytes) -> bool: ...

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]: ...

    def items(self, start: bytes | None = None) -> Iterator[tuple[bytes, bytes]]: ...

    # -- accounting -----------------------------------------------------
    @property
    def memory_bytes(self) -> int: ...

    @property
    def key_count(self) -> int: ...

    # -- hotness monitoring ----------------------------------------------
    def enable_tracking(self, sample_every: int) -> None: ...

    # -- subtree machinery ------------------------------------------------
    def root_ref(self) -> SubtreeRef: ...

    def partition(self, depth: int) -> list[SubtreeRef]: ...

    def child_refs(self, ref: SubtreeRef) -> list[SubtreeRef]: ...

    def subtree_ref(self, node: SubtreeNode, ancestors: list[SubtreeNode]) -> SubtreeRef: ...

    def subtree_memory(self, node: SubtreeNode) -> int: ...

    def subtree_sizes(
        self, node: SubtreeNode
    ) -> tuple[dict[SubtreeNode, int], dict[SubtreeNode, list[SubtreeNode]]]:
        """``subtree_memory`` of ``node`` and of every release candidate
        below it, and each one's candidate children in key order, from one
        walk (nodes without candidate children may be left out)."""
        ...

    def iter_dirty_entries(self, node: SubtreeNode) -> Iterator[tuple[bytes, bytes]]: ...

    def clear_dirty(self, node: SubtreeNode) -> None: ...

    def detach(self, ref: SubtreeRef) -> int:
        """Remove the subtree; returns the bytes it held."""
        ...

    def reset_access_counts(self) -> None: ...


class IndexY(Protocol):
    """The on-disk index as the framework sees it.

    The paper prefers Index Y candidates that bring their own write buffer
    and read cache (Section III-G) — both provided implementations do, and
    the framework sizes them minimally (they are only the transfer buffer).

    Index Y declares the largest entry it can store, as three byte counts:
    the key, the value, and the two together.  Index X is only a write
    buffer in front of Y, so an entry over any of them is refused by
    :meth:`~repro.core.indexy.IndeXY.insert` before X holds it; a release
    or pre-clean pass never meets one.
    """

    max_key_bytes: int
    max_value_bytes: int
    max_entry_bytes: int

    def put_batch(self, pairs: list[tuple[bytes, bytes]]) -> None: ...

    def get(self, key: bytes) -> Optional[bytes]: ...

    def delete(self, key: bytes) -> None: ...

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]: ...

    @property
    def memory_bytes(self) -> int: ...

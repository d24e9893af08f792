"""ART-B+: ART as Index X, on-disk B+ tree as Index Y.

Matches the paper's ART-B+ system: the B+ tree's (small) buffer pool plays
the transfer-buffer role — write aggregation for pre-cleaned batches and a
few recently-read pages for spatial locality (Section II-D).

The tree declares its entry limits as any Index Y does: key plus value
must fit an empty leaf, and the key an inner page as its one separator
(``DiskBPlusTree.max_entry_bytes``, ``max_key_bytes``).
:class:`~repro.core.indexy.IndeXY` refuses a larger entry before Index X
holds it, so this system adds nothing to the verbs of
:class:`~repro.systems.base.IndeXYSystem`.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.art.tree import AdaptiveRadixTree
from repro.core.config import CachePolicyConfig, IndeXYConfig
from repro.core.indexy import IndeXY
from repro.diskbtree.tree import DiskBPlusTree
from repro.systems.base import IndeXYSystem


class _DiskBTreeAsY:
    """Adapt :class:`DiskBPlusTree` to the IndexY protocol (adds delete
    semantics by storing a tombstone-free removal: plain delete)."""

    def __init__(self, tree: DiskBPlusTree) -> None:
        self.tree = tree
        self.max_key_bytes = tree.max_key_bytes
        self.max_value_bytes = tree.max_value_bytes
        self.max_entry_bytes = tree.max_entry_bytes

    def put_batch(self, pairs: list[tuple[bytes, bytes]]) -> None:
        self.tree.put_batch(pairs)

    def get(self, key: bytes) -> Optional[bytes]:
        return self.tree.get(key)

    def delete(self, key: bytes) -> None:
        self.tree.delete(key)

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        return self.tree.scan(start, count)

    @property
    def memory_bytes(self) -> int:
        return self.tree.memory_bytes


class ArtBPlusSystem(IndeXYSystem):
    name = "ART-B+"

    def __init__(
        self,
        memory_limit_bytes: int,
        page_size: int = 4096,
        indexy_config: IndeXYConfig | None = None,
        cache_policies: CachePolicyConfig | None = None,
        **indexy_kwargs: Any,
    ) -> None:
        super().__init__()
        policies = cache_policies or CachePolicyConfig()
        self.page_size = page_size
        config = indexy_config or IndeXYConfig(memory_limit_bytes=memory_limit_bytes)
        x = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        tree = DiskBPlusTree(
            pool_bytes=self.split(memory_limit_bytes)["pool"]["capacity_bytes"],
            page_size=page_size,
            pool_policy=policies.pool,
            runtime=self.runtime,
        )
        self.y_tree = tree
        self.parts = {"pool": tree.pool}
        self.index = IndeXY(x, _DiskBTreeAsY(tree), config, runtime=self.runtime, **indexy_kwargs)

    def split(self, memory_limit_bytes: int) -> dict[str, dict[str, int]]:
        """The transfer pool: an eighth of the limit, floored at 24 pages.

        The paper's 512 MB-of-5 GB transfer pool cannot scale below a
        handful of frames without thrashing.
        """
        return {"pool": {"capacity_bytes": max(24 * self.page_size, memory_limit_bytes // 8)}}

    def flush(self) -> None:
        self.index.flush()
        self.y_tree.flush_all()

"""ART-Multi: ART as Index X over two routed Index Ys (LSM + B+ tree).

A prototype of the paper's Section III-G future extension: the workload's
write-heavy key regions land in the LSM backend, scan-heavy regions in the
B+ tree backend, so a mixed random-write + scan workload no longer forces
a single suboptimal Index Y choice.
"""

from __future__ import annotations

from typing import Any

from repro.art.tree import AdaptiveRadixTree
from repro.core.config import CachePolicyConfig, IndeXYConfig
from repro.core.indexy import IndeXY
from repro.core.multi_y import KeyRegionRouter, RoutedIndexY
from repro.diskbtree.tree import DiskBPlusTree
from repro.lsm.store import LSMConfig, LSMStore
from repro.systems.art_bplus import _DiskBTreeAsY
from repro.systems.base import IndeXYSystem, memtable_share


class ArtMultiYSystem(IndeXYSystem):
    name = "ART-Multi"

    def __init__(
        self,
        memory_limit_bytes: int,
        page_size: int = 4096,
        region_prefix_bytes: int = 5,
        scan_threshold: float = 0.3,
        cache_policies: CachePolicyConfig | None = None,
        **indexy_kwargs: Any,
    ) -> None:
        super().__init__()
        policies = cache_policies or CachePolicyConfig()
        self.page_size = page_size
        sizes = self.split(memory_limit_bytes)
        self.store = LSMStore(
            config=LSMConfig(
                **sizes["store"],
                block_cache_policy=policies.block,
                row_cache_policy=policies.row,
            ),
            runtime=self.runtime,
        )
        self.y_tree = DiskBPlusTree(
            pool_bytes=sizes["pool"]["capacity_bytes"],
            page_size=page_size,
            pool_policy=policies.pool,
            runtime=self.runtime,
        )
        self.parts = {"store": self.store, "pool": self.y_tree.pool}
        router = KeyRegionRouter(
            default="lsm",
            scan_backend="btree",
            region_prefix_bytes=region_prefix_bytes,
            scan_threshold=scan_threshold,
        )
        self.routed = RoutedIndexY(
            {"lsm": self.store, "btree": _DiskBTreeAsY(self.y_tree)},
            router,
            runtime=self.runtime,
        )
        x = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        config = IndeXYConfig(memory_limit_bytes=memory_limit_bytes)
        self.index = IndeXY(x, self.routed, config, runtime=self.runtime, **indexy_kwargs)

    def split(self, memory_limit_bytes: int) -> dict[str, dict[str, int]]:
        """The LSM store's memtable and block cache, then the B+ tree's pool.

        The scan-friendly backend is provisioned for scans: its pool must
        cover a hot scan range, or every range read thrashes page frames.
        """
        return {
            "store": {
                "memtable_bytes": memtable_share(memory_limit_bytes),
                "block_cache_bytes": max(64 * 1024, memory_limit_bytes // 16),
            },
            "pool": {"capacity_bytes": max(48 * self.page_size, memory_limit_bytes // 8)},
        }

    def flush(self) -> None:
        self.index.flush()
        self.store.flush()
        self.y_tree.flush_all()

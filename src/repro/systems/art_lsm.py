"""ART-LSM: ART as Index X, leveled LSM tree as Index Y.

The paper's headline configuration: an in-memory-optimized radix tree for
hot keys, a write-optimized log-structured store for the overflow.
"""

from __future__ import annotations

from typing import Any

from repro.art.tree import AdaptiveRadixTree
from repro.core.config import CachePolicyConfig, IndeXYConfig
from repro.core.indexy import IndeXY
from repro.lsm.store import LSMConfig, LSMStore
from repro.systems.base import IndeXYSystem, memtable_share


class ArtLsmSystem(IndeXYSystem):
    name = "ART-LSM"

    def __init__(
        self,
        memory_limit_bytes: int,
        indexy_config: IndeXYConfig | None = None,
        cache_policies: CachePolicyConfig | None = None,
        **indexy_kwargs: Any,
    ) -> None:
        super().__init__()
        policies = cache_policies or CachePolicyConfig()
        config = indexy_config or IndeXYConfig(memory_limit_bytes=memory_limit_bytes)
        x = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        y = LSMStore(
            config=LSMConfig(
                **self.split(memory_limit_bytes)["store"],
                block_cache_policy=policies.block,
                row_cache_policy=policies.row,
            ),
            runtime=self.runtime,
        )
        self.parts = {"store": y}
        self.index = IndeXY(x, y, config, runtime=self.runtime, **indexy_kwargs)

    def split(self, memory_limit_bytes: int) -> dict[str, dict[str, int]]:
        """The LSM store's memtable and block cache; no row cache.

        Index X plays the row cache's role.  The block cache's 64 KiB
        floor keeps the transfer buffers useful at simulation scale.
        """
        return {
            "store": {
                "memtable_bytes": memtable_share(memory_limit_bytes),
                "block_cache_bytes": max(64 * 1024, memory_limit_bytes // 8),
            }
        }

    def flush(self) -> None:
        self.index.flush()
        self.index.y.flush()  # memtable -> SSTable: a real checkpoint

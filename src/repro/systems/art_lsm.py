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
from repro.sim.costs import CostModel
from repro.sim.runtime import EngineRuntime
from repro.sim.threads import ThreadModel
from repro.systems.base import IndeXYSystem


def _lsm_budgets(memory_limit_bytes: int) -> tuple[int, int]:
    """(memtable, block cache) byte budgets for a memory limit.

    Floors keep the transfer buffers useful at simulation scale: a "few
    MB out of 5 GB" buffer cannot shrink below a handful of blocks
    without becoming pure thrash (see DESIGN.md deviations).
    """
    return (
        max(32 * 1024, memory_limit_bytes // 20),
        max(64 * 1024, memory_limit_bytes // 8),
    )


class ArtLsmSystem(IndeXYSystem):
    name = "ART-LSM"

    def __init__(
        self,
        memory_limit_bytes: int,
        lsm_config: LSMConfig | None = None,
        indexy_config: IndeXYConfig | None = None,
        cache_policies: CachePolicyConfig | None = None,
        costs: CostModel | None = None,
        thread_model: ThreadModel | None = None,
        runtime: EngineRuntime | None = None,
        **indexy_kwargs: Any,
    ) -> None:
        super().__init__(costs, thread_model, runtime=runtime)
        policies = cache_policies or CachePolicyConfig()
        memtable_bytes, block_cache_bytes = _lsm_budgets(memory_limit_bytes)
        lsm_config = lsm_config or LSMConfig(
            memtable_bytes=memtable_bytes,
            block_cache_bytes=block_cache_bytes,
            block_cache_policy=policies.block,
            row_cache_policy=policies.row,
        )
        config = indexy_config or IndeXYConfig(memory_limit_bytes=memory_limit_bytes)
        x = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        y = LSMStore(config=lsm_config, runtime=self.runtime)
        self.index = IndeXY(x, y, config, runtime=self.runtime, **indexy_kwargs)

    def flush(self) -> None:
        self.index.flush()
        self.index.y.flush()  # memtable -> SSTable: a real checkpoint

    def _resize_y(self, memory_limit_bytes: int) -> None:
        store = self.index.y
        assert isinstance(store, LSMStore)
        memtable_bytes, block_cache_bytes = _lsm_budgets(memory_limit_bytes)
        store.resize_caches(block_cache_bytes, memtable_bytes=memtable_bytes)

    def cache_hit_stats(self) -> tuple[float, float]:
        """Index X residency plus the LSM block/row cache ledgers."""
        store = self.index.y
        assert isinstance(store, LSMStore)
        hits = float(self.stats["x_hits"]) + store.block_cache.hits
        misses = float(store.block_cache.misses)
        if store.row_cache is not None:
            hits += store.row_cache.hits
            misses += store.row_cache.misses
        return hits, misses

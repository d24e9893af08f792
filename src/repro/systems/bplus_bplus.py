"""B+-B+: the coupled one-index-for-two-devices baseline (LeanStore).

One page-based B+ tree whose buffer pool *is* the memory budget.  All the
structural behaviours the paper criticizes are real here:

* in-memory operations pay buffer-pool page-access overhead per level;
* caching is page-granular — one hot key pins a whole page frame
  (Figure 5/6's memory-efficiency cliff);
* eviction and write-back follow LeanStore's most-dirtied-first policy;
* on-disk leaf split/merge causes random-I/O read-modify-writes
  (Figure 3's post-limit collapse under random inserts).
"""

from __future__ import annotations

from repro.core.config import CachePolicyConfig
from repro.diskbtree.tree import DiskBPlusTree
from repro.systems.base import BaselineSystem


class BPlusBPlusSystem(BaselineSystem):
    name = "B+-B+"

    def __init__(
        self,
        memory_limit_bytes: int,
        page_size: int = 4096,
        cache_policies: CachePolicyConfig | None = None,
        debug_checks: bool | None = None,
    ) -> None:
        super().__init__()
        policies = cache_policies or CachePolicyConfig()
        self.y = DiskBPlusTree(
            pool_bytes=self.split(memory_limit_bytes)["pool"]["capacity_bytes"],
            page_size=page_size,
            pool_policy=policies.pool,
            runtime=self.runtime,
        )
        self.parts = {"pool": self.y.pool}
        self._install_sanitizer(debug_checks)

    def split(self, memory_limit_bytes: int) -> dict[str, dict[str, int]]:
        """The buffer pool is the whole limit: it *is* the index's memory."""
        return {"pool": {"capacity_bytes": memory_limit_bytes}}

    @property
    def tree(self) -> DiskBPlusTree:
        """Read-only name for ``y`` (tests and tools say ``system.tree``)."""
        tree: DiskBPlusTree = self.y
        return tree

    def flush(self) -> None:
        self.y.flush_all()

"""RocksDB stand-in: the LSM store driven directly.

No framework: the fixed-size MemTable is the only write buffer (hence the
flat, comparatively low in-memory write throughput in Figure 3) and reads
go through the row/block caches rather than a memory-optimized index
(hence the weak read-side memory efficiency in Figures 5 and 6).
"""

from __future__ import annotations

from typing import Iterable

from repro.art.keys import encode_int
from repro.core.config import CachePolicyConfig
from repro.lsm.store import LSMConfig, LSMStore
from repro.systems.base import BaselineSystem, memtable_share


class RocksDbLikeSystem(BaselineSystem):
    name = "RocksDB"

    def __init__(
        self,
        memory_limit_bytes: int,
        cache_policies: CachePolicyConfig | None = None,
        debug_checks: bool | None = None,
    ) -> None:
        super().__init__()
        policies = cache_policies or CachePolicyConfig()
        self.y = LSMStore(
            config=LSMConfig(
                **self.split(memory_limit_bytes)["store"],
                block_cache_policy=policies.block,
                row_cache_policy=policies.row,
            ),
            runtime=self.runtime,
        )
        self.parts = {"store": self.y}
        self._install_sanitizer(debug_checks)

    def split(self, memory_limit_bytes: int) -> dict[str, dict[str, int]]:
        """The LSM store's memtable, block cache and row cache.

        The paper enables RocksDB's row cache for the read study
        (finer-than-block caching granularity); the floors keep each
        buffer useful at simulation scale.
        """
        return {
            "store": {
                "memtable_bytes": memtable_share(memory_limit_bytes),
                "block_cache_bytes": max(64 * 1024, memory_limit_bytes // 8),
                "row_cache_bytes": max(8 * 1024, memory_limit_bytes // 50),
            }
        }

    @property
    def store(self) -> LSMStore:
        """Read-only name for ``y`` (tests and tools say ``system.store``)."""
        store: LSMStore = self.y
        return store

    # ``LSMStore.delete`` writes a tombstone blind, so presence is read first.
    def delete(self, key: int) -> bool:
        self._op()
        present = self.y.get(encode_int(key)) is not None
        self.y.delete(encode_int(key))
        self._sanitize()
        return present

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        # Same per-key charge sequence as delete(), locals hoisted.
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        get = self.y.get
        delete = self.y.delete
        sanitizer = self.sanitizer
        out: list[bool] = []
        append = out.append
        for key in keys:
            charge(overhead)
            bump("ops")
            encoded = encode(key)
            append(get(encoded) is not None)
            delete(encoded)
            if sanitizer is not None:
                sanitizer.after_op()
        return out

    def flush(self) -> None:
        self.y.flush()

"""Byte-budgeted mapping with pluggable eviction (``PolicyCache``).

The generic cache behind the LSM block cache, the RocksDB-like row
cache, and the on-disk B+ tree's small transfer-buffer read cache.
Entries are charged by a caller-supplied byte size so the budget is a
real memory budget, matching how the paper configures these caches to
"a few megabytes" (Section II-D); *which* entry leaves under pressure is
delegated to a :class:`~repro.cache.policy.CachePolicy`.

``lru`` is the default policy: it is what the paper's Section II-D
configuration implies for the block and row caches, and the hit/miss/
eviction sequence every committed simulation result was recorded with.
"""

from __future__ import annotations

from typing import Generic, Hashable, Optional, TypeVar, Union

from repro.cache.policy import CachePolicy, make_policy

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

__all__ = ["PolicyCache"]


class PolicyCache(Generic[K, V]):
    """Policy-driven mapping with a total-bytes capacity."""

    def __init__(self, capacity_bytes: int, policy: Union[str, CachePolicy] = "lru") -> None:
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.used_bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.policy = make_policy(policy) if isinstance(policy, str) else policy
        self.policy.set_capacity(capacity_bytes)
        self._entries: dict[K, tuple[V, int]] = {}

    @property
    def policy_name(self) -> str:
        return self.policy.name

    def get(self, key: K) -> Optional[V]:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self.policy.on_hit(key)
        self.hits += 1
        return entry[0]

    def put(self, key: K, value: V, nbytes: int) -> None:
        """Insert ``value`` charged at ``nbytes``, replacing ``key``'s entry.

        An oversized value is not cached, but the entry it replaces is
        still dropped: ``get`` never returns a value its caller replaced.
        """
        old = self._entries.pop(key, None)
        if old is not None:
            self.used_bytes -= old[1]
            self.policy.on_remove(key)
        if nbytes > self.capacity_bytes:
            return
        self._entries[key] = (value, nbytes)
        self.used_bytes += nbytes
        self.policy.on_insert(key, nbytes)
        self._shrink_to(self.capacity_bytes)

    def invalidate(self, key: K) -> None:
        entry = self._entries.pop(key, None)
        if entry is not None:
            self.used_bytes -= entry[1]
            self.policy.on_remove(key)

    def resize(self, capacity_bytes: int) -> None:
        """Change the byte budget, evicting down through the policy."""
        if capacity_bytes < 0:
            raise ValueError(f"capacity must be non-negative, got {capacity_bytes}")
        self.capacity_bytes = capacity_bytes
        self.policy.set_capacity(capacity_bytes)
        self._shrink_to(capacity_bytes)

    def clear(self) -> None:
        self._entries.clear()
        self.used_bytes = 0
        self.policy.reset()

    def _shrink_to(self, budget: int) -> None:
        entries = self._entries
        policy = self.policy
        while self.used_bytes > budget:
            victim = policy.evict_candidate()
            if victim is None:  # pragma: no cover - nothing is pinned here
                break
            __, size = entries.pop(victim)
            self.used_bytes -= size
            policy.on_remove(victim)
            self.evictions += 1

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PolicyCache(policy={self.policy.name!r}, entries={len(self._entries)}, "
            f"bytes={self.used_bytes}/{self.capacity_bytes})"
        )

"""Byte-budgeted caches for the LSM read path.

The eviction logic lives behind the pluggable
:class:`~repro.cache.policy.CachePolicy` interface and the generic
:class:`~repro.cache.bytecache.PolicyCache` (see DESIGN.md §9).
``LRUCache`` is the LRU-pinned specialisation: LRU is the default
block/row cache policy (and what the paper's Section II-D configuration
implies).
"""

from __future__ import annotations

from typing import Hashable, TypeVar

from repro.cache.bytecache import PolicyCache

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")

__all__ = ["LRUCache", "PolicyCache"]


class LRUCache(PolicyCache[K, V]):
    """``PolicyCache`` pinned to the ``lru`` policy."""

    def __init__(self, capacity_bytes: int) -> None:
        super().__init__(capacity_bytes, policy="lru")

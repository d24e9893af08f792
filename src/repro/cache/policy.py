"""The pluggable cache-eviction-policy contract.

Every caching layer in the reproduction — the disk-B+ buffer pool, the
LSM block cache, and the RocksDB-like row cache — historically hard-coded
one replacement policy.  This module extracts the decision logic behind a
single narrow interface so the policy becomes a per-layer configuration
axis (the cache_ext line of work benchmarks exactly this family against
LevelDB; see DESIGN.md §9).

A :class:`CachePolicy` owns *metadata only*: which keys are resident,
how large each is, and whatever recency/frequency bookkeeping its
algorithm needs.  The cache that drives it owns the values, calls the
hooks on every state change, and asks :meth:`~CachePolicy.evict_candidate`
for a victim when it is over budget.  Keys are opaque hashables (page ids
for the buffer pool, ``(table_id, block)`` tuples for the block cache,
raw key bytes for the row cache).

Determinism contract (enforced by reprolint RL009 over this package):

* no wall clock, no OS state, no ``random`` — a policy's decisions are a
  pure function of the hook-call sequence;
* every internal structure iterates in a deterministic order (dicts and
  lists, never bare ``set``s);
* ties break by insertion order, oldest first.

Registering a new policy is one class::

    @register_policy
    class MyPolicy(CachePolicy):
        name = "mine"
        def _insert(self, key): ...
        def _hit(self, key): ...
        def _remove(self, key): ...
        def evict_candidate(self, is_evictable=None): ...
"""

from __future__ import annotations

from typing import Callable, ClassVar, Hashable, Iterator, Optional, Type

__all__ = [
    "CachePolicy",
    "make_policy",
    "policy_names",
    "register_policy",
]

#: victim filter: the cache may veto candidates (pinned buffer-pool
#: frames); ``None`` means every tracked key is evictable.
Evictable = Optional[Callable[[Hashable], bool]]


class CachePolicy:
    """Base class: byte accounting plus the four-hook eviction API.

    Subclasses implement ``_insert`` / ``_hit`` / ``_remove`` (metadata
    maintenance) and ``evict_candidate`` (victim selection).  The base
    class keeps the per-key byte sizes and the running ``used_bytes``
    total so every policy answers byte-budget questions identically.
    """

    #: registry key; subclasses must override.
    name: ClassVar[str] = "abstract"

    def __init__(self) -> None:
        #: budget hint set by the owning cache (S3-FIFO sizes its small
        #: queue from it); 0 means "unknown".
        self.capacity_bytes = 0
        self.used_bytes = 0
        self._sizes: dict[Hashable, int] = {}

    # -- byte-accounting helpers ----------------------------------------
    def set_capacity(self, capacity_bytes: int) -> None:
        """Tell the policy the cache's byte budget (construction/resize)."""
        self.capacity_bytes = capacity_bytes

    def __len__(self) -> int:
        return len(self._sizes)

    def __contains__(self, key: Hashable) -> bool:
        return key in self._sizes

    def keys(self) -> Iterator[Hashable]:
        """Tracked keys in insertion order (sanitizer walks)."""
        return iter(self._sizes)

    # -- hook API (called by the owning cache) --------------------------
    def on_insert(self, key: Hashable, nbytes: int = 0) -> None:
        """A new entry was admitted, charged at ``nbytes``."""
        if key in self._sizes:
            raise ValueError(f"key {key!r} is already tracked")
        self._sizes[key] = nbytes
        self.used_bytes += nbytes
        self._insert(key)

    def on_hit(self, key: Hashable) -> None:
        """A tracked entry was accessed."""
        self._hit(key)

    def on_remove(self, key: Hashable) -> None:
        """A tracked entry left the cache (eviction or invalidation)."""
        self.used_bytes -= self._sizes.pop(key)
        self._remove(key)

    def evict_candidate(self, is_evictable: Evictable = None) -> Optional[Hashable]:
        """Pick the next victim, or ``None`` when nothing is evictable.

        The cache removes the returned key via :meth:`on_remove`; the
        policy must not assume the removal happened until that call.
        """
        raise NotImplementedError

    def reset(self) -> None:
        """Forget everything (cache ``clear()``)."""
        self._sizes.clear()
        self.used_bytes = 0
        self._reset()

    def self_check(self) -> list[str]:
        """Internal-consistency complaints, one string per problem.

        The cache sanitizer calls this after cross-checking the tracked
        keys against the owning cache; subclasses compare their algorithm
        metadata (recency lists, clock ring, frequency tables) against the
        byte-accounting table.
        """
        return []

    # -- subclass metadata hooks ----------------------------------------
    def _insert(self, key: Hashable) -> None:
        raise NotImplementedError

    def _hit(self, key: Hashable) -> None:
        raise NotImplementedError

    def _remove(self, key: Hashable) -> None:
        raise NotImplementedError

    def _reset(self) -> None:
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(entries={len(self)}, bytes={self.used_bytes})"


_REGISTRY: dict[str, Type[CachePolicy]] = {}


def register_policy(cls: Type[CachePolicy]) -> Type[CachePolicy]:
    """Class decorator: add ``cls`` to the policy registry by its name."""
    if cls.name == "abstract":
        raise ValueError(f"{cls.__name__} must set a concrete 'name'")
    if cls.name in _REGISTRY:
        raise ValueError(f"policy name {cls.name!r} is already registered")
    _REGISTRY[cls.name] = cls
    return cls


def policy_names() -> tuple[str, ...]:
    """Every registered policy name, in registration order."""
    return tuple(_REGISTRY)


def make_policy(name: str) -> CachePolicy:
    """Instantiate a registered policy by name.

    Unknown names fail with the full list, so a typo in a system spec
    (``ART-LSM@block=s3fifo``) reads as a one-line fix.
    """
    cls = _REGISTRY.get(name)
    if cls is None:
        known = ", ".join(policy_names())
        raise ValueError(f"unknown cache policy {name!r}; registered policies: {known}")
    return cls()

"""Structural CPU cost model.

Each unit cost is the simulated time, in nanoseconds, of one structural unit
of work.  The defaults are calibrated against published single-thread
figures for the structures involved (ART ≈ 100–200 ns/lookup in memory,
page-based B+ trees with latching ≈ 600–1000 ns/lookup), so the *ratios*
between systems land where the paper's evaluation places them:

* ART traversals touch one small node per radix level (cache-miss bound);
* in-memory B+ trees binary-search within each node;
* buffer-pool page accesses pay latch + swizzle-check + in-page search
  overhead on every level, which is the structural reason the paper's
  B+-B+ (LeanStore) trails ART-based Index X configurations in memory.

The paper evaluates one machine, so there is one profile: every
``EngineRuntime`` builds the default ``CostModel()`` and hands that one
instance to each of its components.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CostModel:
    """Unit CPU costs in simulated nanoseconds.

    Attributes:
        op_overhead: fixed per-operation dispatch cost (API entry, key
            encoding) charged once per user-facing get/put/scan.
        art_node_visit: one ART node traversal (child-pointer chase).
        btree_node_visit: one in-memory B+ node visit including its binary
            search.
        page_access: one buffer-pool page access (latch acquire/release,
            swizzle check, in-page binary search).  Charged per level by the
            coupled B+-B+ system and by the on-disk B+ tree for pages that
            are already resident.
        key_compare: one key comparison.
        byte_copy: copying one byte (serialize/deserialize, block builds).
        hash_probe: one hash-table probe (block cache, row cache).
        bloom_probe: one bloom-filter membership test.
        skiplist_level: one skip-list level step in the LSM MemTable.
        leaf_mutate: constant cost of mutating a leaf entry in place.
        node_alloc: allocating/initializing one index node.
        lock_acquire: taking an uncontended lock (subtree locks, list locks).
    """

    op_overhead: float = 50.0
    art_node_visit: float = 25.0
    btree_node_visit: float = 45.0
    page_access: float = 250.0
    key_compare: float = 6.0
    byte_copy: float = 0.05
    hash_probe: float = 40.0
    bloom_probe: float = 30.0
    skiplist_level: float = 35.0
    leaf_mutate: float = 30.0
    node_alloc: float = 80.0
    lock_acquire: float = 20.0

    def copy_cost(self, nbytes: int) -> float:
        """Cost of moving ``nbytes`` through memory."""
        return self.byte_copy * nbytes

    def compare_cost(self, ncomparisons: int) -> float:
        return self.key_compare * ncomparisons

"""The IndeXY framework — the paper's primary contribution.

IndeXY integrates an arbitrary in-memory **Index X** and an arbitrary
on-disk **Index Y** into one extensible index spanning memory and disk
(Section II).  The framework owns three coordinated mechanisms, all hosted
on Index X:

* :mod:`repro.core.precleaner` — periodic **pre-cleaning**: D/C-bit
  check-back scanning over an inner-node list writes cold dirty subtrees to
  Y ahead of memory pressure, so releases are (almost) free;
* :mod:`repro.core.release` — **subtree release**: Algorithm 1's
  access-density ranking picks the fewest, largest, coldest subtrees to
  drop when the high watermark is crossed;
* :mod:`repro.core.indexy` — **data migration**: X-miss loads from Y insert
  the requested key into X *clean* (X doubles as the read cache), while Y's
  own small block cache covers spatial locality.

Index X candidates implement :class:`repro.core.interfaces.IndexX`
themselves (:class:`repro.art.AdaptiveRadixTree` and
:class:`repro.btree.BPlusTree` both do); Index Y candidates satisfy the
small :class:`repro.core.interfaces.IndexY` protocol (the LSM store and the
on-disk B+ tree both do).
"""

from repro.core.config import CachePolicyConfig, IndeXYConfig
from repro.core.indexy import IndeXY
from repro.core.interfaces import IndexX, IndexY, SubtreeRef
from repro.core.membudget import MemoryBudget
from repro.core.multi_y import KeyRegionRouter, RoutedIndexY
from repro.core.precleaner import PreCleaner
from repro.core.release import ReleasePolicy, select_for_release

__all__ = [
    "CachePolicyConfig",
    "IndeXY",
    "IndeXYConfig",
    "IndexX",
    "IndexY",
    "KeyRegionRouter",
    "MemoryBudget",
    "RoutedIndexY",
    "PreCleaner",
    "ReleasePolicy",
    "SubtreeRef",
    "select_for_release",
]

"""Log-structured merge tree — the paper's LSM Index Y (RocksDB analogue).

A from-scratch leveled LSM store over the simulated disk:

* skip-list **MemTable** (the write buffer the framework reuses as its
  transfer buffer, Section II-D);
* **SSTables** of sorted 4 KB blocks with per-table bloom filters and a
  block index, written sequentially;
* **leveled compaction** with a size-tiered level 0, charged as background
  CPU plus real (simulated) disk I/O — the write amplification it causes is
  visible in the disk counters;
* byte-budgeted LRU **block cache** and optional **row cache** (the paper
  enables RocksDB's row cache in the Figure 5 read study).

The structural behaviours the paper leans on are all present: random
writes become sequential batched writes (Figure 3's ~30x gap over B+-tree
Index Y), reads may touch several levels, and scans must merge across
levels (Figure 8's Benchmark E weakness).
"""

from repro.cache.bytecache import PolicyCache
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import MemTable
from repro.lsm.sstable import SSTable
from repro.lsm.store import LSMConfig, LSMStore, TOMBSTONE

__all__ = [
    "TOMBSTONE",
    "BloomFilter",
    "PolicyCache",
    "LSMConfig",
    "LSMStore",
    "MemTable",
    "SSTable",
]

"""Sharded serving layer.

Partitions the key space over N independent single-engine systems (each
with its own :class:`~repro.sim.runtime.EngineRuntime`) behind a
batching :class:`~repro.shard.router.ShardRouter`.  See DESIGN.md §8 for
the architecture, §11 for the elastic-resharding layer (heat tracking,
live key-range migration), and EXPERIMENTS.md for the
concurrent-serving methodology.
"""

from repro.shard.config import BudgetConfig, RebalanceConfig
from repro.shard.fleet import FleetController, RangeTransfer
from repro.shard.heat import ShardHeat
from repro.shard.partition import (
    HashPartitioner,
    Partitioner,
    WeightedRangePartitioner,
    make_partitioner,
)
from repro.shard.router import ShardRouter

__all__ = [
    "BudgetConfig",
    "FleetController",
    "HashPartitioner",
    "Partitioner",
    "RangeTransfer",
    "RebalanceConfig",
    "ShardHeat",
    "ShardRouter",
    "WeightedRangePartitioner",
    "make_partitioner",
]

"""Typed configs of the elastic serving layer (DESIGN.md §11).

Both are fed by the one spec grammar in :mod:`repro.core.spec`:
``Sharded@rebalance=threshold:1.3+interval:128,budget=floor:0.1`` reaches
the router as two ``name:value+...`` strings, and ``from_spec`` /
``coerce`` map each spec name onto its dataclass field through the
``_*_KNOBS`` tables below.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.spec import Knobs, coerce_config, config_from_spec

__all__ = ["BudgetConfig", "RebalanceConfig"]

_REBALANCE_KNOBS: Knobs = {
    "threshold": ("threshold", float),
    "interval": ("interval_ops", int),
    "chunk": ("chunk_keys", int),
    "drain": ("drain_interval_ops", int),
    "min_load": ("min_load", float),
    "cooldown": ("cooldown_rounds", int),
    "max_shards": ("max_shards", int),
    "split_load": ("split_load", float),
    "merge_load": ("merge_load", float),
}

_BUDGET_KNOBS: Knobs = {
    "interval": ("interval_ops", int),
    "floor": ("floor_fraction", float),
    "hysteresis": ("hysteresis", float),
    "min_load": ("min_load", float),
}


@dataclass(frozen=True)
class RebalanceConfig:
    """Tuning knobs of the elastic resharding layer.

    Attributes:
        threshold: imbalance trigger — a migration starts when the
            hottest shard's load exceeds ``threshold`` times the mean.
            Clamped at plan time to ``(1 + shards) / 2``: max/mean is
            bounded by the shard count, so a fixed ratio reachable on a
            wide fleet may be unreachable on a narrow one.
        interval_ops: pacing of the planning task (one heat inspection
            per this many foreground router operations).
        chunk_keys: keys moved per drain step; bounds how long one
            step occupies the source and destination engines.
        drain_interval_ops: pacing of the drain task.  Much tighter
            than ``interval_ops``: while a range is in flight its hot
            keys double-read and couple the source and destination
            engines, so the window must close fast — many small paced
            chunks rather than rare big bursts.
        min_load: minimum total decayed load before imbalance is acted
            on (keeps cold startups from migrating noise).
        cooldown_rounds: planning rounds to sit out after a migration
            completes.  The heat ledger is reset at completion, so the
            cooldown is how long the new placement is measured before
            the next decision — without it, stale pre-migration heat
            ping-pongs ranges back and forth ("flapping").
        max_shards: fleet-growth ceiling for true shard *splits*
            (DESIGN.md §11.4).  0 — the default — disables splits and
            merges entirely, keeping the fixed-fleet behaviour (and its
            byte-identical results).  When positive, a planning round
            whose hottest shard carries more than ``split_load`` decayed
            load spawns a fresh engine and drains the hot half of the
            range to it, growing the fleet by one (up to this ceiling).
        split_load: absolute decayed-load trigger for a split.  Unlike
            the relative ``threshold`` (which compares shards against
            each other), a split answers "is the whole fleet too small";
            an absolute trigger keeps a uniformly loaded fleet growing
            under pressure where max/mean never budges.  0 disables.
        merge_load: when the fleet's *total* decayed load falls below
            this, the coldest adjacent pair merges: the right shard
            drains into the left and retires, returning its budget to
            the pool.  A fleet of one never merges.  0 disables.

    The heat ledger's aging factor and sample ring are
    :class:`~repro.shard.heat.ShardHeat`'s own defaults.

    The default threshold and cooldown look conservative on purpose: a
    freshly migrated-into shard pays flush/compaction debt for the
    bulk-loaded range and its keys arrive cache-cold, so for a while it
    *measures* ~2x its true steady load.  A trigger below that debt
    plateau chases the inflation around the fleet forever (every move
    manufactures the next "hot" shard); a short cooldown re-measures
    before the debt has drained.  2.2x with an eight-round cooldown
    sits above the plateau and still fires on genuine Zipf hot spots,
    which measure well beyond it.
    """

    threshold: float = 2.2
    interval_ops: int = 256
    chunk_keys: int = 64
    drain_interval_ops: int = 8
    min_load: float = 32.0
    cooldown_rounds: int = 8
    max_shards: int = 0
    split_load: float = 0.0
    merge_load: float = 0.0

    def __post_init__(self) -> None:
        if self.threshold <= 1.0:
            raise ValueError(f"threshold must be > 1, got {self.threshold}")
        if self.interval_ops < 1:
            raise ValueError(f"interval_ops must be >= 1, got {self.interval_ops}")
        if self.chunk_keys < 1:
            raise ValueError(f"chunk_keys must be >= 1, got {self.chunk_keys}")
        if self.drain_interval_ops < 1:
            raise ValueError(
                f"drain_interval_ops must be >= 1, got {self.drain_interval_ops}"
            )
        if self.cooldown_rounds < 0:
            raise ValueError(f"cooldown_rounds must be >= 0, got {self.cooldown_rounds}")
        if self.max_shards < 0:
            raise ValueError(f"max_shards must be >= 0, got {self.max_shards}")
        if self.split_load < 0.0:
            raise ValueError(f"split_load must be >= 0, got {self.split_load}")
        if self.merge_load < 0.0:
            raise ValueError(f"merge_load must be >= 0, got {self.merge_load}")

    @classmethod
    def from_spec(cls, spec: str) -> "RebalanceConfig":
        """Parse ``name:value`` pairs joined by ``+``.

        ``"on"`` (or an empty spec) selects the defaults; e.g.
        ``threshold:1.3+interval:128+chunk:512`` tunes individual knobs.
        This is the grammar behind ``Sharded@rebalance=...`` specs.
        """
        return config_from_spec(cls, _REBALANCE_KNOBS, spec)

    @classmethod
    def coerce(cls, value: "RebalanceConfig | str | bool | None") -> "RebalanceConfig | None":
        """Normalise the router's ``rebalance=`` argument."""
        return coerce_config(cls, _REBALANCE_KNOBS, value)


@dataclass(frozen=True)
class BudgetConfig:
    """Tuning knobs of the heat-proportional budget layer.

    Attributes:
        interval_ops: pacing of the re-split task (one heat inspection
            per this many foreground router operations).  Coarser than
            migration draining on purpose: a resize moves cache budget,
            not keys, and evicting through the policy too often defeats
            the caches it is meant to feed.
        floor_fraction: per-shard floor as a fraction of the equal
            share ``total / shards`` (clamped to at least the router's
            structural floor).  1.0 degenerates to the fixed equal
            split; 0 lets a cold shard shrink to the structural floor.
        hysteresis: minimum relative movement — measured against the
            equal share — some shard's target must show before a round
            applies.  Below it the fleet keeps its current budgets.
        min_load: minimum total decayed load before re-splitting (a cold
            startup keeps the equal split instead of chasing noise).
    """

    interval_ops: int = 512
    floor_fraction: float = 0.25
    hysteresis: float = 0.10
    min_load: float = 32.0

    def __post_init__(self) -> None:
        if self.interval_ops < 1:
            raise ValueError(f"interval_ops must be >= 1, got {self.interval_ops}")
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ValueError(
                f"floor_fraction must be in [0, 1], got {self.floor_fraction}"
            )
        if self.hysteresis < 0.0:
            raise ValueError(f"hysteresis must be >= 0, got {self.hysteresis}")
        if self.min_load < 0.0:
            raise ValueError(f"min_load must be >= 0, got {self.min_load}")

    @classmethod
    def from_spec(cls, spec: str) -> "BudgetConfig":
        """Parse ``name:value`` pairs joined by ``+``.

        ``"on"`` (or an empty spec) selects the defaults; e.g.
        ``floor:0.1+interval:256+hysteresis:0.05`` tunes individual
        knobs.  This is the grammar behind ``Sharded@budget=...`` specs.
        """
        return config_from_spec(cls, _BUDGET_KNOBS, spec)

    @classmethod
    def coerce(cls, value: "BudgetConfig | str | bool | None") -> "BudgetConfig | None":
        """Normalise the router's ``budget=`` argument."""
        return coerce_config(cls, _BUDGET_KNOBS, value)

"""Framework configuration."""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Mapping, Optional, Sequence

from repro.core.spec import parse_pairs


@dataclass(frozen=True)
class CachePolicyConfig:
    """Per-layer eviction-policy selection (DESIGN.md §9).

    One knob per caching layer: ``pool`` drives the page buffer pools
    (disk-B+ trees), ``block`` the LSM block cache, ``row`` the
    RocksDB-like row cache.  The defaults reproduce the historical
    hard-coded behaviour — CLOCK in the pools, LRU in the byte caches —
    so every committed result is unchanged unless a policy is chosen
    explicitly.
    """

    pool: str = "clock"
    block: str = "lru"
    row: str = "lru"

    def __post_init__(self) -> None:
        from repro.cache.policy import policy_names

        known = policy_names()
        for field in fields(self):
            name = getattr(self, field.name)
            if name not in known:
                raise ValueError(
                    f"unknown cache policy {name!r} for layer {field.name!r}; "
                    f"registered policies: {', '.join(known)}"
                )

    @classmethod
    def from_spec(
        cls,
        spec: str,
        *,
        layers: Optional[Sequence[str]] = None,
        system: Optional[str] = None,
    ) -> "CachePolicyConfig":
        """Parse a ``layer=policy`` list, e.g. ``block=s3fifo,row=lfu``.

        This is the grammar behind system specs like
        ``ART-LSM@block=s3fifo,row=lfu``; see :meth:`from_pairs`.
        """
        return cls.from_pairs(parse_pairs(spec, ",", "="), layers=layers, system=system)

    @classmethod
    def from_pairs(
        cls,
        chosen: Mapping[str, str],
        *,
        layers: Optional[Sequence[str]] = None,
        system: Optional[str] = None,
    ) -> "CachePolicyConfig":
        """Build from already-split ``layer -> policy`` pairs.

        Unnamed layers keep their defaults.  ``layers`` restricts the
        accepted layer names to the ones a particular system actually
        caches on, and ``system`` names that system in the error, so
        ``ART-LSM@pool=lru`` says "ART-LSM has no pool layer; its layers
        are block, row" instead of silently accepting a knob the build
        ignores.
        """
        all_layers = {field.name for field in fields(cls)}
        valid = tuple(layers) if layers is not None else tuple(sorted(all_layers))
        for layer, policy in chosen.items():
            if layer not in all_layers:
                raise ValueError(
                    f"bad cache-policy spec '{layer}={policy}'; expected "
                    f"layer=policy with layer one of {', '.join(valid)}"
                )
            if layer not in valid:
                owner = f"system {system!r}" if system else "this system"
                raise ValueError(
                    f"cache layer {layer!r} does not exist on {owner}; "
                    f"valid layers: {', '.join(valid)}"
                )
        return cls(**chosen)


@dataclass(frozen=True)
class IndeXYConfig:
    """Tuning knobs of the IndeXY framework.

    Attributes:
        memory_limit_bytes: the Index X memory budget (the paper's "index
            size limit", e.g. 5 GB in the YCSB study; scaled down here).
        high_watermark: fraction of the limit that triggers a release
            cycle.
        low_watermark: fraction the release cycle reduces the index to.
            The gap between the two watermarks is the hysteresis that
            prevents release thrash (Section II-A).
        preclean_interval_inserts: the insert-count timer; the pre-cleaning
            thread makes one list pass each time this many inserts land
            (Section II-B), and one pass aims to write back as many keys,
            pace-matching the insert rate.  Must stay well below the
            watermark gap in keys, or releases outrun the cleaner and find
            dirty subtrees.
        partition_depth: starting tree level of the pre-cleaner's
            inner-node list; the cleaner walks deeper if path compression
            leaves too few regions there
            (``precleaner.MIN_PARTITION_REGIONS``).

    Algorithm 1's fixed parameters live next to the code that reads them:
    ``release.MARGIN_FRACTION`` and ``release.VARIATION_THRESHOLD``, and
    the counter sampling period ``indexy.SAMPLE_EVERY``.
    """

    memory_limit_bytes: int
    high_watermark: float = 0.95
    low_watermark: float = 0.80
    preclean_interval_inserts: int = 512
    partition_depth: int = 2

    def __post_init__(self) -> None:
        if self.memory_limit_bytes <= 0:
            raise ValueError("memory_limit_bytes must be positive")
        if not 0 < self.low_watermark < self.high_watermark <= 1.0:
            raise ValueError(
                "watermarks must satisfy 0 < low < high <= 1, got "
                f"low={self.low_watermark}, high={self.high_watermark}"
            )
        if self.preclean_interval_inserts < 1:
            raise ValueError("preclean_interval_inserts must be >= 1")

    @property
    def high_watermark_bytes(self) -> int:
        return int(self.memory_limit_bytes * self.high_watermark)

    @property
    def low_watermark_bytes(self) -> int:
        return int(self.memory_limit_bytes * self.low_watermark)

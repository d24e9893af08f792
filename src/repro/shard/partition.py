"""Key-space partitioners for the sharded serving layer.

A partitioner is a pure, stateless function from an integer key to a
shard id plus the batch-splitting helpers the router's dispatch path
needs.  Two placements are offered:

* :class:`HashPartitioner` — a 64-bit finalizer mix spreads keys
  uniformly regardless of insertion pattern (sequential keys do not pile
  onto one shard).  Range scans must consult every shard.
* :class:`WeightedRangePartitioner` — contiguous slices of
  ``[0, key_space)``, equal at first, so range scans start at the
  owning shard and walk forward; load balance then depends on the
  workload's key distribution.  The boundaries are *movable*: the
  elastic-resharding layer (DESIGN.md §11) shifts a boundary between
  adjacent shards to shed load off a hot shard, and the whole boundary
  tuple is replaced in one assignment, so a reader observes either the
  old or the new routing table, never a mix.

Both are deterministic across processes and Python versions: the hash
mix is an explicit integer permutation (splitmix64's finalizer), never
Python's salted ``hash``.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Iterable, Sequence

__all__ = [
    "PARTITIONERS",
    "Partitioner",
    "HashPartitioner",
    "WeightedRangePartitioner",
    "make_partitioner",
]

_MASK64 = (1 << 64) - 1

#: the names :func:`make_partitioner` accepts.
PARTITIONERS = ("hash", "weighted")


def _mix64(x: int) -> int:
    """splitmix64 finalizer: a fixed 64-bit permutation with good
    avalanche, so adjacent keys land on unrelated shards."""
    x &= _MASK64
    x ^= x >> 33
    x = (x * 0xFF51AFD7ED558CCD) & _MASK64
    x ^= x >> 33
    x = (x * 0xC4CEB9FE1A85EC53) & _MASK64
    x ^= x >> 33
    return x


class Partitioner:
    """Maps integer keys onto ``shards`` shard ids."""

    #: True when shard-id order equals key order (range placement):
    #: scans may then walk shards in id order and stop early.
    ordered = False

    def __init__(self, shards: int) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self.shards = shards

    def shard_of(self, key: int) -> int:
        raise NotImplementedError

    # -- batch splitting ------------------------------------------------
    # One pass over the batch, building plain per-shard lists: the
    # router partitions once, then calls each shard once.
    def split(self, keys: Iterable[int]) -> list[list[int]]:
        """Per-shard key lists, preserving the batch's relative order."""
        batches: list[list[int]] = [[] for __ in range(self.shards)]
        shard_of = self.shard_of
        for key in keys:
            batches[shard_of(key)].append(key)
        return batches

    def split_indexed(
        self, keys: Sequence[int]
    ) -> tuple[list[list[int]], list[list[int]]]:
        """Like :meth:`split`, plus each key's position in the original
        batch so per-shard results can be scattered back in order."""
        batches: list[list[int]] = [[] for __ in range(self.shards)]
        positions: list[list[int]] = [[] for __ in range(self.shards)]
        shard_of = self.shard_of
        for pos, key in enumerate(keys):
            sid = shard_of(key)
            batches[sid].append(key)
            positions[sid].append(pos)
        return batches, positions

    def scan_shard_ids(self, start_key: int) -> list[int]:
        """Shards a scan from ``start_key`` must consult, in visit order."""
        if not self.ordered:
            return list(range(self.shards))
        return list(range(self.shard_of(start_key), self.shards))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(shards={self.shards})"


class HashPartitioner(Partitioner):
    """Uniform placement via a fixed 64-bit mix of the key."""

    ordered = False

    def shard_of(self, key: int) -> int:
        return _mix64(key) % self.shards


class WeightedRangePartitioner(Partitioner):
    """Contiguous slices of ``[0, key_space)`` with movable boundaries.

    ``boundaries[sid]`` is the first key of shard ``sid`` and
    ``boundaries[shards]`` caps the space, so shard ``sid`` owns
    ``[boundaries[sid], boundaries[sid + 1])``; keys outside the declared
    space clamp to the edge shards.  The default boundaries cut equal
    slices, placing ``key`` on shard ``key * shards // key_space``; the
    rebalancer then moves one interior boundary per migration via
    :meth:`move_boundary`, which swaps the whole tuple in a single
    attribute assignment — the atomic routing-table swap the migration
    protocol's happens-before edge relies on (DESIGN.md §11).
    """

    ordered = True

    def __init__(
        self, shards: int, key_space: int, boundaries: Sequence[int] | None = None
    ) -> None:
        super().__init__(shards)
        if key_space < shards:
            raise ValueError(
                f"key_space must be >= shards, got {key_space} < {shards}"
            )
        self.key_space = key_space
        if boundaries is None:
            # ceil(sid * key_space / shards): the exact inverse of
            # ``key * shards // key_space``, so the initial placement
            # matches it key for key.
            boundaries = [-(-sid * key_space // shards) for sid in range(shards + 1)]
        self.boundaries: tuple[int, ...] = self._validated(tuple(boundaries))

    def _validated(self, boundaries: tuple[int, ...]) -> tuple[int, ...]:
        if len(boundaries) != self.shards + 1:
            raise ValueError(
                f"need {self.shards + 1} boundaries for {self.shards} shards, "
                f"got {len(boundaries)}"
            )
        if boundaries[0] != 0 or boundaries[-1] != self.key_space:
            raise ValueError(
                f"boundaries must span [0, {self.key_space}], got "
                f"[{boundaries[0]}, {boundaries[-1]}]"
            )
        if any(a >= b for a, b in zip(boundaries, boundaries[1:])):
            raise ValueError(
                f"boundaries must be strictly increasing (no empty shards): "
                f"{list(boundaries)}"
            )
        return boundaries

    def shard_of(self, key: int) -> int:
        if key <= 0:
            return 0
        if key >= self.key_space:
            return self.shards - 1
        return bisect_right(self.boundaries, key) - 1

    def shard_range(self, sid: int) -> tuple[int, int]:
        """The half-open key range ``[lo, hi)`` shard ``sid`` owns."""
        bounds = self.boundaries
        return bounds[sid], bounds[sid + 1]

    def move_boundary(self, index: int, key: int) -> None:
        """Move interior boundary ``index`` to ``key`` (foreground only).

        The new boundary must stay strictly between its neighbours, so
        no shard's range ever becomes empty.  The replacement is one
        tuple assignment: ``shard_of`` sees the old or the new table in
        full.
        """
        bounds = self.boundaries
        if not 0 < index < self.shards:
            raise ValueError(
                f"boundary index must be interior (1..{self.shards - 1}), got {index}"
            )
        if not bounds[index - 1] < key < bounds[index + 1]:
            raise ValueError(
                f"boundary {index} must stay in ({bounds[index - 1]}, "
                f"{bounds[index + 1]}), got {key}"
            )
        self.boundaries = bounds[:index] + (key,) + bounds[index + 1 :]

    def split_shard(self, sid: int, key: int) -> None:
        """Insert a boundary at ``key``, splitting shard ``sid`` in two.

        After the swap shard ``sid`` owns ``[lo, key)`` and a new shard
        ``sid + 1`` owns ``[key, hi)``; every shard id above ``sid``
        shifts up by one.  Like :meth:`move_boundary` this is a
        foreground-only whole-table swap (two attribute assignments, made
        between operations, so no reader observes the intermediate
        state).  The caller owns the matching engine-list mutation.
        """
        bounds = self.boundaries
        if not 0 <= sid < self.shards:
            raise ValueError(f"shard id must be in [0, {self.shards}), got {sid}")
        if not bounds[sid] < key < bounds[sid + 1]:
            raise ValueError(
                f"split key must fall strictly inside [{bounds[sid]}, "
                f"{bounds[sid + 1]}), got {key}"
            )
        self.shards += 1
        self.boundaries = self._validated(bounds[: sid + 1] + (key,) + bounds[sid + 1 :])

    def merge_shards(self, sid: int) -> None:
        """Remove interior boundary ``sid``: shards ``sid - 1`` and
        ``sid`` become one (owning the union of their ranges) and every
        shard id above ``sid`` shifts down by one.

        Foreground-only whole-table swap; the caller owns the matching
        engine-list mutation and must have drained shard ``sid`` first.
        """
        bounds = self.boundaries
        if not 0 < sid < self.shards:
            raise ValueError(
                f"merge boundary must be interior (1..{self.shards - 1}), got {sid}"
            )
        self.shards -= 1
        self.boundaries = self._validated(bounds[:sid] + bounds[sid + 1 :])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WeightedRangePartitioner(shards={self.shards}, "
            f"boundaries={list(self.boundaries)})"
        )


def make_partitioner(kind: str, shards: int, key_space: int) -> Partitioner:
    """Build a partitioner by name (``"hash"`` or ``"weighted"``)."""
    if shards <= 0:
        raise ValueError(f"shards must be >= 1, got {shards}")
    if kind == "hash":
        return HashPartitioner(shards)
    if kind == "weighted":
        return WeightedRangePartitioner(shards, key_space)
    raise ValueError(f"unknown partitioner {kind!r}; choose from {PARTITIONERS}")

"""Multiple co-existing Index Ys with access-pattern routing.

The paper's stated future extension (Section III-G): *"we will consider
the co-existence of more than one Index Y, each optimized for one access
pattern.  Access to different key regions is directed into the
most-friendly Index Y."*  This module implements that design:

* :class:`KeyRegionRouter` tracks per-key-region write and scan counts and
  assigns each region a *home* backend — write-heavy regions to the
  write-optimized Y (LSM), scan-heavy regions to the scan-friendly Y
  (B+ tree);
* :class:`RoutedIndexY` satisfies the ordinary ``IndexY`` protocol, so the
  IndeXY framework composes with it unchanged: batched write-backs split
  by region, point reads consult the region's home first (then fall back,
  since a region may have been re-homed after data landed), and scans
  merge across backends with the home's version winning.

When a region is re-homed, its data migrates to the new backend in one
sorted bulk pass (scan-drain from the old home, batch-write to the new),
so scans immediately benefit from the friendlier structure; point reads
keep a fallback path for any copy the migration missed.  The migration is
a ``rehome_migration`` maintenance task on the engine runtime's background
scheduler, shared with the backends' own tasks.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Iterator, Optional

from repro.core.interfaces import IndexY
from repro.sim.runtime import EngineRuntime


class KeyRegionRouter:
    """Assigns key regions to backends by observed access pattern.

    A region is the leading ``region_prefix_bytes`` of the key.  Regions
    start at ``default`` (the write-optimized backend, matching the LSM
    default of the paper's systems); once a region has seen at least
    ``min_ops`` operations, it is re-homed to ``scan_backend`` when its
    scan fraction exceeds ``scan_threshold`` (and back when it drops).
    """

    def __init__(
        self,
        default: str,
        scan_backend: str,
        region_prefix_bytes: int = 5,
        scan_threshold: float = 0.3,
        min_ops: int = 32,
    ) -> None:
        if default == scan_backend:
            raise ValueError("default and scan backends must differ")
        self.default = default
        self.scan_backend = scan_backend
        self.region_prefix_bytes = region_prefix_bytes
        self.scan_threshold = scan_threshold
        self.min_ops = min_ops
        self._writes: defaultdict[bytes, int] = defaultdict(int)
        self._scans: defaultdict[bytes, int] = defaultdict(int)
        self._home: dict[bytes, str] = {}

    def region_of(self, key: bytes) -> bytes:
        return key[: self.region_prefix_bytes]

    def note_write(self, key: bytes) -> None:
        self._writes[self.region_of(key)] += 1

    def note_scan(self, key: bytes) -> Optional[tuple[bytes, str, str]]:
        """Record a scan; returns ``(region, old_home, new_home)`` when the
        observation re-homed the region."""
        region = self.region_of(key)
        self._scans[region] += 1
        return self._maybe_rehome(region)

    def _maybe_rehome(self, region: bytes) -> Optional[tuple[bytes, str, str]]:
        writes = self._writes[region]
        scans = self._scans[region]
        total = writes + scans
        if total < self.min_ops:
            return None
        scan_fraction = scans / total
        wanted = self.scan_backend if scan_fraction > self.scan_threshold else self.default
        current = self._home.get(region, self.default)
        if wanted == current:
            return None
        self._home[region] = wanted
        return (region, current, wanted)

    def home_of(self, key: bytes) -> str:
        return self._home.get(self.region_of(key), self.default)

    def assignments(self) -> dict[bytes, str]:
        """Current non-default region homes (for inspection/tests)."""
        return dict(self._home)


class RoutedIndexY:
    """An IndexY composed of several backends behind a router."""

    def __init__(
        self,
        backends: dict[str, IndexY],
        router: KeyRegionRouter,
        runtime: EngineRuntime,
    ) -> None:
        missing = {router.default, router.scan_backend} - set(backends)
        if missing:
            raise ValueError(f"router references unknown backends: {sorted(missing)}")
        self.backends = backends
        self.router = router
        # Any backend may become a region's home, so an entry must fit
        # every one of them.
        self.max_key_bytes = min(b.max_key_bytes for b in backends.values())
        self.max_value_bytes = min(b.max_value_bytes for b in backends.values())
        self.max_entry_bytes = min(b.max_entry_bytes for b in backends.values())
        self.stats = runtime.stats
        #: which backends hold data for each region — lets scans skip
        #: backends with nothing in range (and migrations update it).
        self._holders: defaultdict[bytes, set[str]] = defaultdict(set)
        self._scheduler = runtime.scheduler
        self._migration_task = self._scheduler.register(
            "rehome_migration",
            priority=5,
            backpressure_threshold=4,
        )

    # ------------------------------------------------------------------
    # writes
    # ------------------------------------------------------------------
    def put_batch(self, pairs: list[tuple[bytes, bytes]]) -> None:
        grouped: defaultdict[str, list[tuple[bytes, bytes]]] = defaultdict(list)
        for key, value in pairs:
            self.router.note_write(key)
            home = self.router.home_of(key)
            grouped[home].append((key, value))
            self._holders[self.router.region_of(key)].add(home)
        for name, batch in grouped.items():
            self.backends[name].put_batch(batch)
            self.stats.bump(f"writes_{name}", len(batch))

    def delete(self, key: bytes) -> None:
        # A key may have copies in former homes: delete everywhere.
        for backend in self.backends.values():
            backend.delete(key)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def get(self, key: bytes) -> Optional[bytes]:
        home = self.router.home_of(key)
        value = self.backends[home].get(key)
        if value is not None:
            self.stats.bump("home_hits")
            return value
        # Fall back: the region may have been re-homed after older data
        # landed elsewhere.
        for name, backend in self.backends.items():
            if name == home:
                continue
            value = backend.get(key)
            if value is not None:
                self.stats.bump("fallback_hits")
                return value
        return None

    def scan(self, start: bytes, count: int) -> list[tuple[bytes, bytes]]:
        rehomed = self.router.note_scan(start)
        if rehomed is not None:
            self._request_migration(rehomed)
        candidates = self._scan_candidates(start)
        per_backend = {
            name: self.backends[name].scan(start, count) for name in candidates
        }
        out = self._merge(per_backend, count)
        if len(out) < count and len(candidates) < len(self.backends):
            # The range ran past the regions we tracked: consult everyone.
            per_backend = {
                name: backend.scan(start, count)
                for name, backend in self.backends.items()
            }
            out = self._merge(per_backend, count)
            self.stats.bump("scan_fallbacks")
        return out

    def _scan_candidates(self, start: bytes) -> list[str]:
        """Backends that can hold keys in a scan starting at ``start``.

        Uses the region-holder map for the start region and the next few
        tracked regions; a scan that outruns them falls back to all
        backends (see :meth:`scan`).
        """
        region = self.router.region_of(start)
        names: set[str] = set(self._holders.get(region, ()))
        following = sorted(r for r in self._holders if r > region)[:4]
        for r in following:
            names |= self._holders[r]
        if not names:
            return list(self.backends)
        return sorted(names)

    def _request_migration(self, rehomed: tuple[bytes, str, str]) -> None:
        """Route a re-homing migration through the background scheduler.

        The default pacing of 0 drains the requested work immediately, so
        the scan that triggered the re-homing still observes the migrated
        data.
        """
        self._scheduler.request(self._migration_task, lambda: self._migrate(*rehomed))

    def _migrate(self, region: bytes, old_home: str, new_home: str) -> None:
        """Move a re-homed region's data to its new backend.

        One-time bulk copy: the region's key range is drained from the old
        home in scan order and batch-written (sorted, sequential-friendly)
        to the new home, then deleted from the old.  Without this, the
        "most-friendly Index Y" would only ever apply to data written
        after the re-homing decision.
        """
        source = self.backends[old_home]
        target = self.backends[new_home]
        end = self._region_end(region)
        cursor = region
        moved = 0
        while True:
            chunk = source.scan(cursor, 512)
            chunk = [(k, v) for k, v in chunk if k < end and k >= cursor]
            if not chunk:
                break
            target.put_batch(chunk)
            for key, __ in chunk:
                source.delete(key)
            moved += len(chunk)
            cursor = chunk[-1][0] + b"\x00"
        holders = self._holders[region]
        holders.discard(old_home)
        holders.add(new_home)
        self.stats.bump("migrations")
        self.stats.bump("migrated_keys", moved)

    @staticmethod
    def _region_end(region: bytes) -> bytes:
        """Smallest byte string greater than every key with this prefix."""
        raw = bytearray(region)
        for i in reversed(range(len(raw))):
            if raw[i] != 0xFF:
                raw[i] += 1
                del raw[i + 1 :]
                return bytes(raw)
        return bytes(raw) + b"\xff" * 16  # all-0xff prefix: effectively open

    def _merge(
        self, per_backend: dict[str, list[tuple[bytes, bytes]]], count: int
    ) -> list[tuple[bytes, bytes]]:
        """Key-ordered merge; the region's home wins on duplicates."""
        import heapq

        ordering = list(per_backend)

        def tagged(
            name: str, results: list[tuple[bytes, bytes]]
        ) -> Iterator[tuple[bytes, int, str, bytes]]:
            # Bind name/results per stream (generator late-binding hazard).
            rank = ordering.index(name)
            return ((key, rank, name, value) for key, value in results)

        merged = heapq.merge(
            *(tagged(name, results) for name, results in per_backend.items())
        )
        out: list[tuple[bytes, bytes]] = []
        pending_key: Optional[bytes] = None
        pending: dict[str, bytes] = {}
        for key, __, name, value in merged:
            if key != pending_key:
                if pending_key is not None:
                    out.append(self._resolve(pending_key, pending))
                    if len(out) >= count:
                        return out
                pending_key = key
                pending = {}
            pending[name] = value
        if pending_key is not None and len(out) < count:
            out.append(self._resolve(pending_key, pending))
        return out[:count]

    def _resolve(self, key: bytes, versions: dict[str, bytes]) -> tuple[bytes, bytes]:
        home = self.router.home_of(key)
        if home in versions:
            return key, versions[home]
        name = next(iter(versions))
        return key, versions[name]

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return sum(b.memory_bytes for b in self.backends.values())

"""Simulated block device with a sequential/random latency model.

The device stores real bytes (so on-disk structures round-trip their data)
and charges simulated time per request.  The latency model is the one that
matters for the paper's conclusions:

* a request that starts exactly where the previous request of the same kind
  ended is *sequential* and pays transfer time only;
* any other request pays a fixed positioning cost (``seek_ns``) plus
  transfer time — this is what punishes the on-disk B+ tree's scattered
  leaf read-modify-writes and rewards the LSM tree's large sequential
  SSTable writes.

Defaults approximate the paper's SATA SSD: ~500 MB/s streaming, ~15 K
random 4 KB IOPS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.sim.effects import Probe, charges
from repro.sim.stats import StatCounters


@dataclass(frozen=True)
class DiskSpec:
    """Device parameters.

    Attributes:
        block_size: allocation granularity in bytes.
        seek_ns: positioning cost charged to every non-sequential request.
        ns_per_byte: inverse streaming bandwidth (2.0 ⇒ 500 MB/s).
        min_io_ns: floor charged to any request (command overhead).
    """

    block_size: int = 4096
    seek_ns: float = 60_000.0
    ns_per_byte: float = 2.0
    min_io_ns: float = 8_000.0


class SimDisk:
    """A flat byte space with a bump allocator and blob-granularity I/O.

    Usage contract: callers allocate an extent, write one blob at its
    offset, and later read back exactly that blob by offset.  Both on-disk
    structures in this repo (LSM SSTable blocks, B+ tree pages) follow this
    contract naturally.  Rewriting an offset in place is allowed (B+ page
    update); reading an offset that was never written raises ``KeyError``.
    """

    def __init__(self, spec: DiskSpec | None = None) -> None:
        self.spec = spec or DiskSpec()
        self.stats = StatCounters()
        self.busy_ns = 0.0
        #: the substrate probe (``EngineRuntime.subscribe``): called with
        #: ``(effect, latency)`` before every request is charged.
        self._probe: Optional[Probe] = None
        self._blobs: dict[int, bytes] = {}
        self._next_offset = 0
        self._last_read_end = -1
        self._last_write_end = -1

    # ------------------------------------------------------------------
    # space management
    # ------------------------------------------------------------------
    @charges()
    def allocate(self, nbytes: int) -> int:
        """Reserve an extent of at least ``nbytes`` and return its offset."""
        if nbytes <= 0:
            raise ValueError(f"allocation size must be positive, got {nbytes}")
        block = self.spec.block_size
        span = ((nbytes + block - 1) // block) * block
        self.stats.bump("bytes_allocated", span)
        offset = self._next_offset
        self._next_offset += span
        return offset

    @charges()
    def free(self, offset: int) -> None:
        """Release the blob at ``offset`` (space accounting only)."""
        blob = self._blobs.get(offset)
        if blob is not None:
            self.stats.bump("bytes_freed", len(blob))
            del self._blobs[offset]

    @property
    def used_bytes(self) -> int:
        return sum(len(b) for b in self._blobs.values())

    # ------------------------------------------------------------------
    # I/O
    # ------------------------------------------------------------------
    def write(self, offset: int, data: bytes) -> float:
        """Store ``data`` at ``offset`` and return the simulated latency."""
        sequential = offset == self._last_write_end
        latency = self._charge("disk_write", len(data), sequential)
        self._last_write_end = offset + len(data)
        self._blobs[offset] = bytes(data)
        self.stats.bump("writes")
        self.stats.bump("bytes_written", len(data))
        if sequential:
            self.stats.bump("seq_writes")
        else:
            self.stats.bump("rand_writes")
        return latency

    def read(self, offset: int) -> bytes:
        """Return the blob at ``offset``, charging simulated latency."""
        blob = self._blobs[offset]
        sequential = offset == self._last_read_end
        self._charge("disk_read", len(blob), sequential)
        self._last_read_end = offset + len(blob)
        self.stats.bump("reads")
        self.stats.bump("bytes_read", len(blob))
        if sequential:
            self.stats.bump("seq_reads")
        else:
            self.stats.bump("rand_reads")
        return blob

    def _charge(self, effect: str, nbytes: int, sequential: bool) -> float:
        latency = self.spec.ns_per_byte * nbytes
        if not sequential:
            latency += self.spec.seek_ns
        latency = max(latency, self.spec.min_io_ns)
        if self._probe is not None:
            self._probe(effect, latency)
        self.busy_ns += latency
        return latency

    # ------------------------------------------------------------------
    # sampling
    # ------------------------------------------------------------------
    def snapshot(self) -> tuple[float, dict[str, float]]:
        """Return ``(busy_ns, counter snapshot)`` for delta-based sampling."""
        return (self.busy_ns, self.stats.snapshot())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SimDisk(used={self.used_bytes}B, busy={self.busy_ns / 1e6:.1f}ms, "
            f"r={self.stats['reads']:.0f}, w={self.stats['writes']:.0f})"
        )

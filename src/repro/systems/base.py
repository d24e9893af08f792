"""Common system interface and simulated-time accounting.

A ``KVSystem`` owns one :class:`~repro.sim.runtime.EngineRuntime` — the
shared clock/disk/costs/stats substrate plus the background scheduler all
of its components register maintenance tasks on.  Workloads drive it
through integer-keyed operations; benchmarks sample
:meth:`KVSystem.snapshot` deltas and convert them to throughput in
operations per simulated second via :meth:`Snapshot.throughput_ops`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Optional

from repro.art.keys import encode_int
from repro.sim.costs import CostModel
from repro.sim.effects import charges
from repro.sim.runtime import EngineRuntime
from repro.sim.threads import ThreadModel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.indexy import IndeXY


@dataclass(frozen=True)
class Snapshot:
    """Accumulated simulated work at a sampling point."""

    cpu_ns: float
    background_ns: float
    disk_busy_ns: float
    ops: float
    disk_read_bytes: float
    disk_write_bytes: float

    def delta(self, later: "Snapshot") -> "Snapshot":
        return Snapshot(
            cpu_ns=later.cpu_ns - self.cpu_ns,
            background_ns=later.background_ns - self.background_ns,
            disk_busy_ns=later.disk_busy_ns - self.disk_busy_ns,
            ops=later.ops - self.ops,
            disk_read_bytes=later.disk_read_bytes - self.disk_read_bytes,
            disk_write_bytes=later.disk_write_bytes - self.disk_write_bytes,
        )

    def __add__(self, other: "Snapshot") -> "Snapshot":
        return Snapshot(
            cpu_ns=self.cpu_ns + other.cpu_ns,
            background_ns=self.background_ns + other.background_ns,
            disk_busy_ns=self.disk_busy_ns + other.disk_busy_ns,
            ops=self.ops + other.ops,
            disk_read_bytes=self.disk_read_bytes + other.disk_read_bytes,
            disk_write_bytes=self.disk_write_bytes + other.disk_write_bytes,
        )

    def elapsed_ns(self, threads: int, model: ThreadModel) -> float:
        return model.elapsed_ns(self.cpu_ns, self.background_ns, self.disk_busy_ns, threads)

    def throughput_ops(self, threads: int, model: ThreadModel) -> float:
        """Operations per simulated second."""
        elapsed = self.elapsed_ns(threads, model)
        if elapsed <= 0:
            return 0.0
        return self.ops / (elapsed / 1e9)

    def disk_mb_per_s(self, threads: int, model: ThreadModel) -> float:
        elapsed = self.elapsed_ns(threads, model)
        if elapsed <= 0:
            return 0.0
        total = self.disk_read_bytes + self.disk_write_bytes
        return total / (1 << 20) / (elapsed / 1e9)


class KVSystem:
    """Base class: one engine runtime and the operation contract."""

    name = "abstract"

    def __init__(
        self,
        costs: CostModel | None = None,
        thread_model: ThreadModel | None = None,
        runtime: EngineRuntime | None = None,
    ) -> None:
        self.runtime = (
            runtime
            if runtime is not None
            else EngineRuntime(costs=costs, thread_model=thread_model)
        )
        self.clock = self.runtime.clock
        self.disk = self.runtime.disk
        self.costs = self.runtime.costs
        self.thread_model = self.runtime.thread_model
        self.stats = self.runtime.stats

    # -- operations ------------------------------------------------------
    def insert(self, key: int, value: bytes) -> None:
        raise NotImplementedError

    def read(self, key: int) -> Optional[bytes]:
        raise NotImplementedError

    def update(self, key: int, value: bytes) -> None:
        """Distinct from insert only in intent; systems may share the path."""
        self.insert(key, value)

    def delete(self, key: int) -> bool:
        """Remove ``key`` everywhere it lives; True if it was present."""
        raise NotImplementedError

    def scan(self, key: int, count: int) -> list[tuple[bytes, bytes]]:
        raise NotImplementedError

    def read_modify_write(self, key: int, value: bytes) -> None:
        self.read(key)
        self.update(key, value)

    # -- batched operations ----------------------------------------------
    # The batch paths exist for wall-clock reasons only: they perform the
    # exact per-key operation sequence (same simulated charges, same
    # order) while amortizing Python dispatch.  Subclasses override them
    # to hoist their per-op attribute lookups out of the loop.
    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        """Insert ``value`` under every key in ``keys``."""
        insert = self.insert
        for key in keys:
            insert(key, value)

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        """Point-read every key in ``keys``; returns the values in order."""
        read = self.read
        return [read(key) for key in keys]

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        """Delete every key in ``keys``; returns the presence flags in order."""
        delete = self.delete
        return [delete(key) for key in keys]

    def flush(self) -> None:
        """Persist everything (end-of-run checkpoint)."""

    # -- memory budget -----------------------------------------------------
    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Re-budget the live system to a new memory limit.

        The seam the sharded budget rebalancer resizes fleets through
        (DESIGN.md §11.4): contents must survive, shrinks must evict
        through the system's own cache/buffer policies, and the call
        itself charges nothing — evicting cached copies is bookkeeping,
        the simulated cost lands on the later re-reads it causes.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot be re-budgeted live")

    def cache_hit_stats(self) -> tuple[float, float]:
        """(hits, misses) accumulated across the system's read caches.

        Serving harnesses report per-window hit rates from deltas of
        these — the observable a memory-budget change actually moves.
        The base implementation reads the buffer-pool bus counters
        (the cache layer of the B+-backed systems); LSM-backed systems
        override with their block/row cache ledgers.
        """
        return float(self.stats["pool_hits"]), float(self.stats["pool_misses"])

    # -- accounting --------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        raise NotImplementedError

    @charges("cpu_charge")
    def _op(self) -> None:
        """Per-operation fixed overhead + op count."""
        self.clock.charge_cpu(self.costs.op_overhead)
        self.stats.bump("ops")

    def snapshot(self) -> Snapshot:
        return Snapshot(
            cpu_ns=self.clock.cpu_ns,
            background_ns=self.clock.background_ns,
            disk_busy_ns=self.disk.busy_ns,
            ops=self.stats["ops"],
            disk_read_bytes=self.disk.stats["bytes_read"],
            disk_write_bytes=self.disk.stats["bytes_written"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(ops={self.stats['ops']:.0f})"


class IndeXYSystem(KVSystem):
    """The verbs of every system whose engine is one :class:`IndeXY`.

    Subclasses assemble ``self.index`` (an Index X over their Index Y)
    and implement :meth:`_resize_y`; the operation contract is identical
    whatever sits under the framework, so it is written once here.
    """

    index: "IndeXY"

    def insert(self, key: int, value: bytes) -> None:
        self._op()
        self.index.insert(encode_int(key), value)

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        # Same per-key charge sequence as insert(), locals hoisted.
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        insert = self.index.insert
        for key in keys:
            charge(overhead)
            bump("ops")
            insert(encode(key), value)

    def read(self, key: int) -> Optional[bytes]:
        self._op()
        return self.index.get(encode_int(key))

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        get = self.index.get
        out: list[Optional[bytes]] = []
        append = out.append
        for key in keys:
            charge(overhead)
            bump("ops")
            append(get(encode(key)))
        return out

    def delete(self, key: int) -> bool:
        self._op()
        return self.index.delete(encode_int(key))

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        # Same per-key charge sequence as delete(), locals hoisted.
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        delete = self.index.delete
        out: list[bool] = []
        append = out.append
        for key in keys:
            charge(overhead)
            bump("ops")
            append(delete(encode(key)))
        return out

    def scan(self, key: int, count: int) -> list[tuple[bytes, bytes]]:
        self._op()
        return self.index.scan(encode_int(key), count)

    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Re-budget the live system: Index X watermarks plus Index Y caches.

        Both consumers are refit with the constructor's own byte split,
        so a system resized to limit ``L`` budgets exactly like one
        built at ``L``.  The X side enforces immediately (a shrink
        triggers a release cycle right away, not on the next insert);
        the Y side resizes in place, evicting through its cache policies
        so surviving contents stay warm.
        """
        self.index.set_memory_limit(memory_limit_bytes, enforce=True)
        self._resize_y(memory_limit_bytes)

    def _resize_y(self, memory_limit_bytes: int) -> None:
        """Refit Index Y's caches to the system's byte split of the limit."""
        raise NotImplementedError

    @property
    def memory_bytes(self) -> int:
        return self.index.memory_bytes


class BaselineSystem(KVSystem):
    """The verbs of the framework-less baselines (B+-B+, RocksDB-like).

    Subclasses assemble ``self.y`` — the one disk-resident index they
    drive directly, with the ``put``/``get``/``delete``/``scan`` surface
    of an Index Y — and call :meth:`_install_sanitizer`; the operation
    contract is the same whatever the index is, so it is written once
    here.  ``delete`` assumes the index reports presence itself; a
    subclass whose index does not overrides the two delete verbs.
    """

    y: Any
    sanitizer: Optional[Any] = None

    def _install_sanitizer(self, debug_checks: bool | None) -> None:
        """Attach a ``StoreSanitizer`` over ``self.y`` when debug checks are on."""
        if debug_checks is None:
            from repro.check.flags import sanitize_enabled

            debug_checks = sanitize_enabled()
        if debug_checks:
            from repro.check.sanitizer import StoreSanitizer, check_index_y

            self.sanitizer = StoreSanitizer(self.runtime, lambda: check_index_y(self.y))

    def _sanitize(self) -> None:
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def insert(self, key: int, value: bytes) -> None:
        self._op()
        self.y.put(encode_int(key), value)
        self._sanitize()

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        # Same per-key charge sequence as insert(), locals hoisted.
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        put = self.y.put
        sanitizer = self.sanitizer
        for key in keys:
            charge(overhead)
            bump("ops")
            put(encode(key), value)
            if sanitizer is not None:
                sanitizer.after_op()

    def read(self, key: int) -> Optional[bytes]:
        self._op()
        value = self.y.get(encode_int(key))
        self._sanitize()
        return value

    def get_many(self, keys: Iterable[int]) -> list[Optional[bytes]]:
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        get = self.y.get
        sanitizer = self.sanitizer
        out: list[Optional[bytes]] = []
        append = out.append
        for key in keys:
            charge(overhead)
            bump("ops")
            append(get(encode(key)))
            if sanitizer is not None:
                sanitizer.after_op()
        return out

    def delete(self, key: int) -> bool:
        self._op()
        present: bool = self.y.delete(encode_int(key))
        self._sanitize()
        return present

    def delete_many(self, keys: Iterable[int]) -> list[bool]:
        # Same per-key charge sequence as delete(), locals hoisted.
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        delete = self.y.delete
        sanitizer = self.sanitizer
        out: list[bool] = []
        append = out.append
        for key in keys:
            charge(overhead)
            bump("ops")
            append(delete(encode(key)))
            if sanitizer is not None:
                sanitizer.after_op()
        return out

    def scan(self, key: int, count: int) -> list[tuple[bytes, bytes]]:
        self._op()
        out: list[tuple[bytes, bytes]] = self.y.scan(encode_int(key), count)
        self._sanitize()
        return out

    @property
    def memory_bytes(self) -> int:
        memory: int = self.y.memory_bytes
        return memory

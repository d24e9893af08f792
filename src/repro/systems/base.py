"""Common system interface and simulated-time accounting.

A ``KVSystem`` owns one :class:`~repro.sim.runtime.EngineRuntime` — the
shared clock/disk/costs/stats substrate plus the background scheduler all
of its components register maintenance tasks on.  Workloads drive it
through integer-keyed operations; benchmarks sample
:meth:`KVSystem.snapshot` deltas and convert them to throughput in
operations per simulated second via :meth:`Snapshot.throughput_ops`.

A system's memory limit becomes buffer sizes in one place, its
:meth:`KVSystem.split`: the constructor builds every budgeted part from
it, :meth:`KVSystem.set_memory_limit` resizes every part from it, and
:meth:`KVSystem.cache_hit_stats` reads the same parts' hit ledgers.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Optional

from repro.art.keys import encode_int
from repro.sim.effects import charges
from repro.sim.runtime import EngineRuntime
from repro.sim.threads import ThreadModel

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.core.indexy import IndeXY
    from repro.diskbtree.bufferpool import BufferPool
    from repro.lsm.store import LSMStore


def memtable_share(memory_limit_bytes: int) -> int:
    """The LSM write buffer's bytes of a memory limit, in every LSM split.

    A twentieth of the limit, floored at 32 KiB: a "few MB out of 5 GB"
    transfer buffer cannot shrink below a handful of blocks without
    becoming pure thrash at simulation scale (DESIGN.md deviations).
    """
    return max(32 * 1024, memory_limit_bytes // 20)


def limit_error(memory_limit_bytes: int) -> ValueError:
    """The one rejection of a memory limit below one byte."""
    return ValueError(f"memory_limit_bytes must be at least 1, got {memory_limit_bytes}")


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
    #: the engine's IndeXY, for the systems built on the framework.
    index: Optional["IndeXY"] = None
    #: the buffers the memory limit is split over, keyed as :meth:`split`
    #: keys them; each resizes by the keywords of its own config and
    #: reports ``hit_counts()``.  A system without any keeps this empty.
    parts: Mapping[str, "LSMStore | BufferPool"] = MappingProxyType({})
    #: runtime sanitizer over the store, when debug checks installed one.
    sanitizer: Optional[Any] = None

    def __init__(self) -> None:
        self.runtime = EngineRuntime()
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
    def split(self, memory_limit_bytes: int) -> dict[str, dict[str, int]]:
        """The byte split of a memory limit over the budgeted parts.

        Per part name, the keyword arguments its ``resize`` takes — the
        buffer fields of the part's own config, so the constructor builds
        from the same mapping.  Each system writes its split once.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot be re-budgeted live")

    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Re-budget the live system to a new memory limit.

        The seam the sharded budget rebalancer resizes fleets through
        (DESIGN.md §9): Index X's watermarks move and are enforced at
        once (a shrink runs a release cycle now, not on the next insert),
        then every part is resized from :meth:`split`, so a system
        resized to ``L`` is budgeted exactly like one built at ``L``.
        Contents survive; shrinks evict through the parts' own policies.
        The call is not free: the enforced release cycle, a memtable
        flush under a smaller write buffer and the write-back of dirty
        pool victims charge the clock like any other maintenance (the
        serving harness bills them to the shard, ``bench.serve._settle``).
        """
        if memory_limit_bytes < 1:
            raise limit_error(memory_limit_bytes)
        if self.index is not None:
            self.index.set_memory_limit(memory_limit_bytes, enforce=True)
        parts = self.parts
        for name, sizes in self.split(memory_limit_bytes).items():
            parts[name].resize(**sizes)
        if self.sanitizer is not None:
            self.sanitizer.after_op()

    def cache_hit_stats(self) -> tuple[float, float]:
        """(hits, misses) accumulated across Index X and the budgeted parts.

        Serving harnesses report per-window hit rates from deltas of
        these — the observable a memory-budget change actually moves.
        Index X counts its resident reads as hits (baselines have none);
        each part adds its own block/row-cache or buffer-pool ledger.
        """
        ledgers = [part.hit_counts() for part in self.parts.values()]
        hits = self.stats["x_hits"] + sum(h for h, __ in ledgers)
        return float(hits), float(sum(m for __, m in ledgers))

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
    from their :meth:`~KVSystem.split`; the operation contract is
    identical whatever sits under the framework, so it is written once
    here.
    """

    index: "IndeXY"

    def insert(self, key: int, value: bytes) -> None:
        # The op is charged once the index has taken the entry: one it
        # refuses (over Index Y's limits) costs nothing and is no op.
        self.index.insert(encode_int(key), value)
        self._op()

    def put_many(self, keys: Iterable[int], value: bytes) -> None:
        # Same per-key charge sequence as insert(), locals hoisted.
        charge = self.clock.charge_cpu
        overhead = self.costs.op_overhead
        bump = self.stats.bump
        encode = encode_int
        insert = self.index.insert
        for key in keys:
            insert(encode(key), value)
            charge(overhead)
            bump("ops")

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
        # Charged after the put, as on IndeXYSystem: a refused entry is no op.
        self.y.put(encode_int(key), value)
        self._op()
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
            put(encode(key), value)
            charge(overhead)
            bump("ops")
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

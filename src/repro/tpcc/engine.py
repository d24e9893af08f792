"""The TPC-C engine.

Owns the nine table indexes, one shared engine runtime (clock, disk,
stats, background scheduler), and the swappable orderline backend.  The
eight small tables live in resident ART indexes (they fit in memory; the
paper keeps them there too).  The orderline index — over 10x larger than
any other — runs on one of the four compared backends and is the
component the memory limit squeezes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace

from repro.art.tree import AdaptiveRadixTree
from repro.core.config import IndeXYConfig
from repro.core.indexy import IndeXY
from repro.diskbtree.tree import DiskBPlusTree
from repro.lsm.store import LSMConfig, LSMStore
from repro.sim.runtime import EngineRuntime
from repro.systems.art_bplus import _DiskBTreeAsY
from repro.systems.base import Snapshot, limit_error, memtable_share
from repro.tpcc import keys
from repro.tpcc.transactions import new_order, payment

ORDERLINE_BACKENDS = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB")


def _orderline_split(kind: str, budget: int, page_size: int) -> dict[str, int]:
    """The orderline backend's buffer sizes for ``budget``, one split per kind.

    Keyed as the buffer's ``resize`` (and its config) spell them, so
    construction and refit cannot drift.  An LSM store gets the memtable
    share and a twentieth as block cache, plus a row cache under RocksDB
    alone (under the framework Index X plays that role).  A B+ tree's
    pool is a tenth of ``budget`` as ART-B+'s transfer pool and all of
    it when the pool *is* the index (B+-B+).
    """
    if kind == "ART-B+":
        return {"capacity_bytes": max(16 * page_size, budget // 10)}
    if kind == "B+-B+":
        return {"capacity_bytes": max(2 * page_size, budget)}
    split = {
        "memtable_bytes": memtable_share(budget),
        "block_cache_bytes": max(16 * 1024, budget // 20),
    }
    if kind == "RocksDB":
        split["row_cache_bytes"] = max(8 * 1024, budget // 50)
    return split


@dataclass(frozen=True)
class TpccConfig:
    """Scaled-down TPC-C parameters.

    The paper runs 100 warehouses (~10 GB) under a 30 GB limit; the
    defaults here keep the same *ratios* at simulation scale.  New-Order
    and Payment are mixed 50/50 as in the paper.
    """

    warehouses: int = 4
    districts_per_warehouse: int = 10
    customers_per_district: int = 100
    items: int = 1000
    memory_limit_bytes: int = 1 << 20
    page_size: int = 4096
    orderline_backend: str = "ART-LSM"
    orderline_value_bytes: int = 64
    new_order_fraction: float = 0.5
    seed: int = 2024

    def __post_init__(self) -> None:
        if self.memory_limit_bytes < 1:
            raise limit_error(self.memory_limit_bytes)
        if self.orderline_backend not in ORDERLINE_BACKENDS:
            raise ValueError(
                f"unknown orderline backend {self.orderline_backend!r}; "
                f"choose from {ORDERLINE_BACKENDS}"
            )
        if self.warehouses < 1:
            raise ValueError("need at least one warehouse")


class TpccEngine:
    """Runs the New-Order + Payment mix against a chosen orderline backend."""

    def __init__(self, config: TpccConfig) -> None:
        self.config = config
        self.runtime = EngineRuntime()
        self.clock = self.runtime.clock
        self.disk = self.runtime.disk
        self.costs = self.runtime.costs
        self.thread_model = self.runtime.thread_model
        self.stats = self.runtime.stats
        self.rng = random.Random(config.seed)

        # The eight resident tables (each an in-memory index, as in the
        # paper: "transactions from Payment ... only access indexes that
        # have been kept in the memory").
        self.warehouse = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.district = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.customer = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.item = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.stock = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.order = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.new_order_tbl = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self.history = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        self._history_seq = 0

        self._load()
        self.orderline, self._orderline_part = self._build_orderline_backend()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def _load(self) -> None:
        """Populate the initial database (items, stock, customers, ...)."""
        cfg = self.config
        for i in range(cfg.items):
            self.item.insert(keys.item_key(i), (100 + i % 900).to_bytes(4, "big"), dirty=False)
        for w in range(cfg.warehouses):
            self.warehouse.insert(keys.warehouse_key(w), (0).to_bytes(8, "big"), dirty=False)
            for i in range(cfg.items):
                value = (50).to_bytes(4, "big") + (0).to_bytes(8, "big")
                self.stock.insert(keys.stock_key(w, i), value, dirty=False)
            for d in range(cfg.districts_per_warehouse):
                value = (0).to_bytes(8, "big") + (1).to_bytes(6, "big")
                self.district.insert(keys.district_key(w, d), value, dirty=False)
                for c in range(cfg.customers_per_district):
                    value = (0).to_bytes(8, "big") + (0).to_bytes(4, "big")
                    self.customer.insert(keys.customer_key(w, d, c), value, dirty=False)

    def _resident_tables_bytes(self) -> int:
        return (
            self.warehouse.memory_bytes
            + self.district.memory_bytes
            + self.customer.memory_bytes
            + self.item.memory_bytes
            + self.stock.memory_bytes
            + self.order.memory_bytes
            + self.new_order_tbl.memory_bytes
            + self.history.memory_bytes
        )

    def _orderline_budget(self) -> int:
        """What remains of the workload limit for the orderline index."""
        remaining = self.config.memory_limit_bytes - self._resident_tables_bytes()
        return max(64 * 1024, remaining)

    def _build_orderline_backend(self):
        """The orderline backend, and the buffer its budget resizes."""
        cfg = self.config
        budget = self._orderline_budget()
        kind = cfg.orderline_backend
        sizes = _orderline_split(kind, budget, cfg.page_size)
        if kind in ("ART-LSM", "RocksDB"):
            y = part = LSMStore(self.runtime, LSMConfig(**sizes))
        else:
            y = DiskBPlusTree(self.runtime, sizes["capacity_bytes"], cfg.page_size)
            part = y.pool
        if kind not in ("ART-LSM", "ART-B+"):
            return y, part
        x = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        if kind == "ART-B+":
            y = _DiskBTreeAsY(y)
        return IndeXY(x, y, IndeXYConfig(memory_limit_bytes=budget), self.runtime), part

    # ------------------------------------------------------------------
    # live re-budgeting
    # ------------------------------------------------------------------
    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Re-budget the engine to a new workload-wide memory limit.

        The sharded/serving seam: the orderline backend — the one
        component the limit squeezes — is refit to what remains after
        the resident tables: its X watermarks, then its buffer, from the
        split the constructor used.
        """
        self.config = cfg = replace(self.config, memory_limit_bytes=memory_limit_bytes)
        budget = self._refit_orderline()
        sizes = _orderline_split(cfg.orderline_backend, budget, cfg.page_size)
        self._orderline_part.resize(**sizes)

    def _refit_orderline(self) -> int:
        """Move the X watermarks to the current orderline budget; return it.

        The periodic re-fit (every 256 transactions, as the resident
        tables grow) is this alone — the behaviour the committed TPC-C
        results were recorded under; :meth:`set_memory_limit` also
        resizes the buffers.
        """
        budget = self._orderline_budget()
        if isinstance(self.orderline, IndeXY):
            self.orderline.set_memory_limit(budget)
        return budget

    # ------------------------------------------------------------------
    # orderline access used by the transactions
    # ------------------------------------------------------------------
    def orderline_insert(self, key: bytes, value: bytes) -> None:
        backend = self.orderline
        if isinstance(backend, IndeXY):
            backend.insert(key, value)
        else:
            backend.put(key, value)
        self.stats.bump("orderline_inserts")

    def orderline_read(self, key: bytes):
        return self.orderline.get(key)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run_transaction(self) -> str:
        """Execute one transaction of the configured mix; returns its type."""
        if self.rng.random() < self.config.new_order_fraction:
            new_order(self, self.rng)
            self.stats.bump("new_order_txns")
            kind = "new_order"
        else:
            payment(self, self.rng)
            self.stats.bump("payment_txns")
            kind = "payment"
        self.stats.bump("txns")
        if self.stats["txns"] % 256 == 0:
            # Re-fit the orderline budget as the resident tables grow
            # (the workload-wide 30 GB limit of Section III-F).
            self._refit_orderline()
        return kind

    def run(self, transactions: int) -> None:
        for __ in range(transactions):
            self.run_transaction()

    # ------------------------------------------------------------------
    # accounting
    # ------------------------------------------------------------------
    @property
    def memory_bytes(self) -> int:
        return self._resident_tables_bytes() + self.orderline.memory_bytes

    def snapshot(self) -> Snapshot:
        return Snapshot(
            cpu_ns=self.clock.cpu_ns,
            background_ns=self.clock.background_ns,
            disk_busy_ns=self.disk.busy_ns,
            ops=self.stats["txns"],
            disk_read_bytes=self.disk.stats["bytes_read"],
            disk_write_bytes=self.disk.stats["bytes_written"],
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TpccEngine(backend={self.config.orderline_backend}, "
            f"txns={self.stats['txns']:.0f})"
        )

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
from repro.sim.costs import CostModel
from repro.sim.runtime import EngineRuntime
from repro.sim.threads import ThreadModel
from repro.systems.art_bplus import _DiskBTreeAsY
from repro.systems.base import Snapshot
from repro.tpcc import keys
from repro.tpcc.transactions import new_order, payment

ORDERLINE_BACKENDS = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB")


def _lsm_split(budget: int, row_cache: bool) -> dict[str, int]:
    """An LSM orderline store's byte split of ``budget``.

    Keyed as both ``LSMConfig`` and ``LSMStore.resize_caches`` spell the
    buffers, so construction and refit cannot drift.  The row cache is
    RocksDB's alone: under the framework Index X plays that role.
    """
    split = {
        "memtable_bytes": max(32 * 1024, budget // 20),
        "block_cache_bytes": max(16 * 1024, budget // 20),
    }
    if row_cache:
        split["row_cache_bytes"] = max(8 * 1024, budget // 50)
    return split


def _pool_split(budget: int, page_size: int, transfer: bool) -> int:
    """A B+ orderline tree's pool bytes: a tenth of ``budget`` as ART-B+'s
    transfer pool, all of it when the pool *is* the index (B+-B+)."""
    if transfer:
        return max(16 * page_size, budget // 10)
    return max(2 * page_size, budget)


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
    #: opt-in: the periodic budget refit also resizes the backend's
    #: caches/buffer pool (not just the IndeXY X watermarks), so every
    #: backend — including B+-B+ and RocksDB, which have no X index —
    #: tracks the shrinking orderline budget live.  Off by default: the
    #: committed fig9/fig10 results predate the live-resize seam.
    refit_caches: bool = False

    def __post_init__(self) -> None:
        if self.orderline_backend not in ORDERLINE_BACKENDS:
            raise ValueError(
                f"unknown orderline backend {self.orderline_backend!r}; "
                f"choose from {ORDERLINE_BACKENDS}"
            )
        if self.warehouses < 1:
            raise ValueError("need at least one warehouse")


class TpccEngine:
    """Runs the New-Order + Payment mix against a chosen orderline backend."""

    def __init__(
        self,
        config: TpccConfig,
        costs: CostModel | None = None,
        thread_model: ThreadModel | None = None,
    ) -> None:
        self.config = config
        self.runtime = EngineRuntime(costs=costs, thread_model=thread_model)
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
        self.orderline = self._build_orderline_backend()

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
        cfg = self.config
        budget = self._orderline_budget()
        kind = cfg.orderline_backend
        indexed = kind in ("ART-LSM", "ART-B+")
        if kind in ("ART-LSM", "RocksDB"):
            y = LSMStore(self.runtime, LSMConfig(**_lsm_split(budget, row_cache=not indexed)))
        else:
            y = DiskBPlusTree(
                self.runtime, _pool_split(budget, cfg.page_size, transfer=indexed), cfg.page_size
            )
        if not indexed:
            return y
        x = AdaptiveRadixTree(clock=self.clock, costs=self.costs)
        if kind == "ART-B+":
            y = _DiskBTreeAsY(y)
        return IndeXY(x, y, IndeXYConfig(memory_limit_bytes=budget), self.runtime)

    # ------------------------------------------------------------------
    # live re-budgeting
    # ------------------------------------------------------------------
    def set_memory_limit(self, memory_limit_bytes: int) -> None:
        """Re-budget the engine to a new workload-wide memory limit.

        The sharded/serving seam: the orderline backend — the one
        component the limit squeezes — is refit to what remains after
        the resident tables, caches included, regardless of the
        ``refit_caches`` knob (an explicit limit change is always a real
        resize; the knob only gates the *periodic* refit).
        """
        self.config = replace(self.config, memory_limit_bytes=memory_limit_bytes)
        self._refit_orderline(resize_caches=True)

    def _refit_orderline(self, resize_caches: bool) -> None:
        """Push the current orderline budget into the live backend.

        The single refit seam behind both the periodic re-fit (every 256
        transactions, as the resident tables grow) and explicit
        :meth:`set_memory_limit` calls.  With ``resize_caches`` False
        only the IndeXY X watermarks move — the historical behaviour the
        committed TPC-C results were recorded under; with it True the
        backend's caches and buffer pools are refit with the
        constructor's own formulas too.
        """
        budget = self._orderline_budget()
        backend = self.orderline
        indexed = isinstance(backend, IndeXY)
        if indexed:
            backend.set_memory_limit(budget)
        if not resize_caches:
            return
        y = backend.y if indexed else backend
        if isinstance(y, LSMStore):
            y.resize_caches(**_lsm_split(budget, row_cache=not indexed))
        else:
            tree = y.tree if indexed else y
            tree.pool.resize(_pool_split(budget, self.config.page_size, transfer=indexed))

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
            # (the workload-wide 30 GB limit of Section III-F).  Every
            # backend passes through the seam; cache resizing is the
            # opt-in part (see TpccConfig.refit_caches).
            self._refit_orderline(resize_caches=self.config.refit_caches)
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

"""Tests for the engine runtime and its background scheduler.

Covers the scheduler mechanics (pacing, backpressure, the producer call), the
per-task instrumentation bus, and — critically — behaviour-preservation
regressions: under the default configuration the scheduler routing must
reproduce the seed's maintenance counters exactly.
"""

import random

from repro.art import AdaptiveRadixTree, encode_int
from repro.core import IndeXY, IndeXYConfig, ReleasePolicy
from repro.core.precleaner import PreCleaner
from repro.lsm import LSMConfig, LSMStore
import pytest

from repro.sim import EngineRuntime


def ikey(i: int) -> bytes:
    return encode_int(i)


# ----------------------------------------------------------------------
# scheduler mechanics
# ----------------------------------------------------------------------
class TestPacing:
    def test_periodic_task_honors_pacing_interval(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register(
            "beat", lambda: runs.append(1), pacing_interval_ops=10, periodic=True
        )
        for __ in range(35):
            runtime.scheduler.tick(1)
        assert len(runs) == 3  # fired at ops 10, 20, 30
        assert task.last_run_ops == 30

    def test_queued_work_defers_until_due(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register(
            "paced", lambda: runs.append(1), pacing_interval_ops=5
        )
        runtime.scheduler.submit(task)
        assert runs == []  # not due yet: stays queued
        assert task.queue_depth == 1
        assert runtime.stats["task_paced_deferred"] == 1
        runtime.scheduler.tick(5)
        assert runs == [1]
        assert task.queue_depth == 0

    def test_unpaced_submit_runs_immediately(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register("now", lambda: runs.append(1))
        runtime.scheduler.submit(task)
        assert runs == [1]
        assert runtime.stats["task_now_scheduled"] == 1

    def test_drain_ignores_pacing(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register(
            "slow", lambda: runs.append(1), pacing_interval_ops=1000
        )
        runtime.scheduler.submit(task)
        runtime.scheduler.submit(task)
        assert runs == []
        runtime.scheduler.drain()
        assert runs == [1, 1]


class TestBackpressure:
    def test_saturated_reports_full_queue(self):
        runtime = EngineRuntime()
        task = runtime.scheduler.register(
            "narrow", lambda: None, pacing_interval_ops=1000, backpressure_threshold=2
        )
        assert not runtime.scheduler.saturated(task)
        runtime.scheduler.submit(task)
        assert not runtime.scheduler.saturated(task)
        runtime.scheduler.submit(task)
        assert runtime.scheduler.saturated(task)

    def test_inline_fallback_runs_synchronously(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register(
            "fallback", lambda: runs.append(1), pacing_interval_ops=1000
        )
        runtime.scheduler.run_inline(task)
        assert runs == [1]
        assert runtime.stats["task_fallback_inline"] == 1
        assert runtime.stats["task_fallback_scheduled"] == 0


class TestRequest:
    """``request`` is the one call a maintenance producer makes."""

    def test_below_threshold_is_scheduled(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register("job", lambda: runs.append(1), backpressure_threshold=2)
        runtime.scheduler.request(task)
        assert runs == [1]  # unpaced: drained at once
        assert runtime.stats["task_job_scheduled"] == 1
        assert runtime.stats["task_job_inline"] == 0

    def test_at_threshold_runs_inline(self):
        runtime = EngineRuntime()
        runs = []
        task = runtime.scheduler.register(
            "job", lambda: runs.append("runner"), pacing_interval_ops=1000, backpressure_threshold=2
        )
        runtime.scheduler.request(task)
        runtime.scheduler.request(task)
        assert runs == []  # paced: both queued, the task is now saturated
        runtime.scheduler.request(task, lambda: runs.append("work"))
        assert runs == ["work"]  # the stall: this request ran synchronously
        assert runtime.stats["task_job_inline"] == 1
        assert runtime.stats["task_job_scheduled"] == 0
        assert task.queue_depth == 2

    def test_reentrant_request_is_deferred_then_drained(self):
        runtime = EngineRuntime()
        order = []

        def runner():
            order.append("start")
            if len(order) == 1:
                runtime.scheduler.request(task)
                assert task.queue_depth == 1  # parked, not run recursively
            order.append("end")

        task = runtime.scheduler.register("job", runner)
        runtime.scheduler.request(task)
        assert order == ["start", "end", "start", "end"]
        assert runtime.stats["task_job_deferred"] == 1
        assert runtime.stats["task_job_scheduled"] == 2
        assert task.queue_depth == 0

    def test_no_runner_and_no_work_raises(self):
        runtime = EngineRuntime()
        task = runtime.scheduler.register("bare")
        with pytest.raises(ValueError):
            runtime.scheduler.request(task)
        task.queue.extend([lambda: None] * task.backpressure_threshold)
        with pytest.raises(ValueError):  # the inline arm refuses it too
            runtime.scheduler.request(task)


class TestChargeModes:
    """There is one mode: charges stay on the account the runner chose."""

    def test_inherit_charge_leaves_accounts_untouched(self):
        runtime = EngineRuntime()

        def work():
            runtime.clock.charge_cpu(300.0)
            runtime.clock.charge_background(200.0)

        task = runtime.scheduler.register("keep", work)
        runtime.scheduler.submit(task)
        assert runtime.clock.cpu_ns == 300.0
        assert runtime.clock.background_ns == 200.0
        assert runtime.stats["task_keep_cpu_ns"] == 300.0
        assert runtime.stats["task_keep_background_ns"] == 200.0


class TestInstrumentation:
    def test_task_metrics_reports_per_task_activity(self):
        runtime = EngineRuntime()
        task = runtime.scheduler.register("probe", lambda: None)
        runtime.scheduler.submit(task)
        metrics = runtime.task_metrics()
        assert metrics["probe"]["runs"] == 1
        assert metrics["probe"]["submits"] == 1
        assert metrics["probe"]["queue_depth"] == 0

    def test_task_metrics_delta_since_snapshot(self):
        runtime = EngineRuntime()
        task = runtime.scheduler.register("probe", lambda: None)
        runtime.scheduler.submit(task)
        earlier = runtime.stats.snapshot()
        runtime.scheduler.submit(task)
        runtime.scheduler.submit(task)
        metrics = runtime.task_metrics(earlier)
        assert metrics["probe"]["runs"] == 2


# ----------------------------------------------------------------------
# behaviour preservation: the scheduler routing must not change results
# ----------------------------------------------------------------------
def build_indexy():
    runtime = EngineRuntime()
    x = AdaptiveRadixTree(clock=runtime.clock)
    y = LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024, block_cache_bytes=16 * 1024))
    config = IndeXYConfig(
        memory_limit_bytes=128 * 1024,
        preclean_interval_inserts=512,
        partition_depth=2,
    )
    return IndeXY(x, y, config, runtime), x, y


class TestGoldenCounters:
    """The exact maintenance counters the seed implementation produced.

    Any scheduler change that defers, merges, or reorders the default
    (unpaced) maintenance work will show up here as a counter drift.
    """

    GOLDEN = {
        "inserts": 8000,
        "preclean_candidates": 16,
        "preclean_cleanings": 6,
        "preclean_fallbacks": 6,
        "preclean_keys_written": 4346,
        "preclean_skips_hot": 25,
        "preclean_writebacks": 6,
        "release_clean_drops": 38,
        "release_cycles": 4,
        "release_keys_written": 2650,
        "release_lock_stall_ns": 2017248.0,
        "release_writebacks": 278,
        "released_bytes": 79996,
        "tracking_started": 1,
    }
    LSM_GOLDEN = {
        "compaction_bytes_written": 376200,
        "compactions": 4,
        "flush_bytes": 150480,
        "flushes": 20,
    }

    def test_indexy_counters_match_seed(self):
        idx, x, y = build_indexy()
        keys = random.Random(3).sample(range(10**8), 8000)
        for k in keys:
            idx.insert(k.to_bytes(8, "big"), b"v" * 8)
        got = idx.stats.as_dict()
        for name, value in self.GOLDEN.items():
            assert got.get(name) == value, f"{name}: {got.get(name)} != {value}"
        for name, value in self.LSM_GOLDEN.items():
            assert y.stats[name] == value, f"{name}: {y.stats[name]} != {value}"
        assert x.memory_bytes == 118196
        assert x.key_count == 4728

    def test_precleaner_counters_match_seed(self):
        runtime = EngineRuntime()
        x = AdaptiveRadixTree(clock=runtime.clock)
        y = LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024))
        config = IndeXYConfig(
            memory_limit_bytes=1 << 20,
            preclean_interval_inserts=100,
            partition_depth=1,
        )
        cleaner = PreCleaner(x, y, config, runtime.stats)
        for i in range(0, 3000, 7):
            x.insert(ikey(i), b"v" * 8, dirty=True)
        cleaner.run_pass()
        cleaner.run_pass()
        golden = {
            "preclean_candidates": 12,
            "preclean_cleanings": 3,
            "preclean_keys_written": 110,
            "preclean_writebacks": 3,
        }
        for name, value in golden.items():
            assert cleaner.stats[name] == value, f"{name}: {cleaner.stats[name]} != {value}"


class TestIndexyFixes:
    def test_deleted_key_cannot_resurrect_from_y(self):
        """A key copied to Y before ``_y_populated`` flips must stay dead."""
        idx, x, y = build_indexy()
        idx.insert(ikey(1), b"alpha")
        idx.insert(ikey(2), b"beta")
        # Simulate a pre-clean write-back landing in Y while the
        # populated flag is still down (the historical race window).
        y.put_batch([(ikey(1), b"alpha")])
        assert not idx._y_populated
        assert idx.delete(ikey(1))
        # Force Y visibility the way a release does.
        idx._y_populated = True
        assert idx.get(ikey(1)) is None
        assert ikey(1) not in dict(idx.scan(ikey(0), 10))

    def test_set_memory_limit_keeps_a_custom_release_depth(self):
        runtime = EngineRuntime()
        idx = IndeXY(
            AdaptiveRadixTree(clock=runtime.clock),
            LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024)),
            IndeXYConfig(memory_limit_bytes=1 << 20),
            runtime,
            release_policy=ReleasePolicy("coarse", partition_depth=3),
        )
        idx.set_memory_limit(1 << 19)
        assert idx.release_policy.partition_depth == 3
        assert idx.config.memory_limit_bytes == 1 << 19
        assert idx.budget.config is idx.config


# ----------------------------------------------------------------------
# runtime wiring across the layers
# ----------------------------------------------------------------------
class TestRuntimeWiring:
    def test_systems_share_one_runtime(self):
        from repro.systems.factory import build_system

        for name in ("ART-LSM", "ART-B+", "B+-B+", "RocksDB", "ART-Multi"):
            system = build_system(name, 128 * 1024)
            assert system.clock is system.runtime.clock
            assert system.disk is system.runtime.disk
            assert system.stats is system.runtime.stats

    def test_maintenance_tasks_registered_per_system(self):
        from repro.systems.factory import build_system

        names = build_system("ART-LSM", 128 * 1024).runtime.scheduler.task_names()
        assert {"release", "preclean", "lsm_compaction"} <= set(names)
        names = build_system("ART-B+", 128 * 1024).runtime.scheduler.task_names()
        assert {"release", "preclean", "pool_writeback"} <= set(names)
        names = build_system("B+-B+", 128 * 1024).runtime.scheduler.task_names()
        assert "pool_writeback" in names
        names = build_system("ART-Multi", 128 * 1024).runtime.scheduler.task_names()
        assert {
            "release",
            "preclean",
            "lsm_compaction",
            "pool_writeback",
            "rehome_migration",
        } <= set(names)

    def test_background_work_recorded_on_stats_bus(self):
        from repro.systems.factory import build_system

        system = build_system("ART-LSM", 128 * 1024)
        keys = random.Random(11).sample(range(1 << 40), 6000)
        for k in keys:
            system.insert(k, b"v" * 8)
        stats = system.stats
        assert stats["task_release_runs"] > 0
        assert stats["task_preclean_runs"] > 0
        assert stats["task_lsm_compaction_runs"] > 0
        assert stats["task_lsm_compaction_background_ns"] > 0

    def test_tpcc_engine_shares_runtime(self):
        from repro.core.indexy import IndeXY as _IndeXY
        from repro.tpcc.engine import TpccConfig, TpccEngine

        engine = TpccEngine(TpccConfig(warehouses=1, memory_limit_bytes=256 * 1024))
        assert engine.clock is engine.runtime.clock
        assert isinstance(engine.orderline, _IndeXY)
        assert engine.orderline.runtime is engine.runtime


class TestHarnessBackgroundMetrics:
    def test_insert_series_emits_background_slice(self):
        from repro.bench.harness import insert_series
        from repro.systems.factory import build_system

        system = build_system("ART-LSM", 128 * 1024)
        keys = random.Random(7).sample(range(1 << 40), 8000)
        samples = insert_series(system, keys, b"v" * 8, chunk=2000, threads=4)
        assert len(samples) == 4
        for sample in samples:
            background = sample["background"]
            assert "utilization" in background
            assert "release" in background["tasks"]
        # The later slices run maintenance: some task must have activity.
        assert any(
            metrics.get("runs")
            for sample in samples
            for metrics in sample["background"]["tasks"].values()
        )

    def test_format_background_report(self):
        from repro.bench.harness import insert_series
        from repro.bench.report import format_background_report
        from repro.systems.factory import build_system

        system = build_system("ART-LSM", 128 * 1024)
        keys = random.Random(7).sample(range(1 << 40), 8000)
        samples = insert_series(system, keys, b"v" * 8, chunk=2000, threads=4)
        text = format_background_report("bg", samples)
        assert "bg_util" in text
        assert "release" in text

"""Unit tests for the pre-cleaning check-back protocol (Section II-B)."""

import pytest

from repro.art import AdaptiveRadixTree, encode_int
from repro.core import IndeXY, IndeXYConfig, PreCleaner
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime, StatCounters


def ikey(i: int) -> bytes:
    return encode_int(i)


@pytest.fixture
def setup():
    runtime = EngineRuntime()
    x = AdaptiveRadixTree()
    y = LSMStore(runtime, LSMConfig(memtable_bytes=1 << 20))
    config = IndeXYConfig(
        memory_limit_bytes=1 << 20, preclean_interval_inserts=100, partition_depth=1
    )
    cleaner = PreCleaner(x, y, config, runtime.stats)
    return x, y, cleaner


def spread_keys(x, lo, hi, step=1, dirty=True):
    for k in range(lo, hi, step):
        x.insert(ikey(k), b"v", dirty=dirty)


def test_first_pass_only_marks_candidates(setup):
    x, y, cleaner = setup
    spread_keys(x, 0, 3000, 7)
    assert cleaner.run_pass() is False  # every dirty node just became a candidate
    assert cleaner.stats["preclean_candidates"] > 0
    assert cleaner.stats["preclean_cleanings"] == 0


def test_second_pass_cleans_quiet_region(setup):
    x, y, cleaner = setup
    spread_keys(x, 0, 3000, 7)
    cleaner.run_pass()  # mark candidates
    assert cleaner.run_pass() is True  # regions stayed quiet: cleaning happens
    assert cleaner.stats["preclean_cleanings"] >= 1
    assert cleaner.stats["preclean_keys_written"] > 0
    # The cleaned keys are now in Y.
    assert y.get(ikey(0)) == b"v" or cleaner.stats["preclean_keys_written"] < 3000 / 7


def test_hot_region_is_skipped(setup):
    x, y, cleaner = setup
    spread_keys(x, 0, 2000, 5)
    cleaner.run_pass()  # all regions: D->0, C->1
    # One key region keeps receiving inserts: its activity bit comes back.
    spread_keys(x, 0, 120, 1)
    refs = cleaner._region_list()
    assert any(r.node.activity and r.node.clean_candidate for r in refs)
    cleaned = cleaner.run_pass()
    # The hot region is detected and skipped; a quiet one is cleaned.
    assert cleaner.stats["preclean_skips_hot"] >= 1
    assert cleaned is True


def test_pass_suspends_at_key_quota(setup):
    x, y, cleaner = setup
    spread_keys(x, 0, 5000, 3)
    cleaner.run_pass()
    cleaner.run_pass()
    # The pass stops once it has written about one interval's worth of
    # keys — far fewer than the total dirty population.
    written = cleaner.stats["preclean_keys_written"]
    assert 0 < written < 5000 / 3
    assert written >= min(cleaner.config.preclean_interval_inserts, 100)


def test_disabled_cleaner_does_nothing():
    # Disabled means the engine registers no ``preclean`` task: the
    # scheduler's periodic task is the only timer there is.
    runtime = EngineRuntime()
    x = AdaptiveRadixTree(clock=runtime.clock)
    y = LSMStore(runtime, LSMConfig(memtable_bytes=16 * 1024))
    config = IndeXYConfig(memory_limit_bytes=64 * 1024, preclean_interval_inserts=1)
    index = IndeXY(x, y, config, runtime, precleaning_enabled=False)
    for k in range(0, 12000, 3):
        index.insert(ikey(k), b"v")
    off = index.precleaner
    assert runtime.stats["release_cycles"] > 0  # maintenance did tick
    assert "preclean" not in runtime.scheduler.task_names()
    assert off.stats["preclean_cleanings"] == 0


def test_no_checkback_cleans_immediately(setup):
    x, y, __ = setup
    config = IndeXYConfig(memory_limit_bytes=1 << 20, partition_depth=1)
    eager = PreCleaner(x, y, config, StatCounters(), check_back=False)
    spread_keys(x, 0, 2000, 5)
    assert eager.run_pass() is True  # first pass already cleans
    assert eager.stats["preclean_cleanings"] >= 1


def test_cleaning_marks_subtree_clean(setup):
    x, y, cleaner = setup
    spread_keys(x, 0, 1000, 3)
    cleaner.run_pass()
    cleaner.run_pass()
    refs = cleaner._region_list()
    cleaned = [r for r in refs if not r.node.dirty and not r.node.clean_candidate]
    assert cleaned
    # A cleaned region has no dirty leaves.
    quiet = cleaned[0]
    assert list(x.iter_dirty_entries(quiet.node)) == []


def test_writeback_is_key_ordered(setup):
    x, __, cleaner = setup
    spread_keys(x, 0, 1000, 3)
    captured: list[list[tuple[bytes, bytes]]] = []

    class SpyY:
        def put_batch(self, pairs):
            captured.append(list(pairs))

    cleaner.index_y = SpyY()
    cleaner.run_pass()
    cleaner.run_pass()
    assert captured
    for batch in captured:
        keys = [k for k, __v in batch]
        assert keys == sorted(keys)


def test_empty_tree_pass_is_safe(setup):
    __, ___, cleaner = setup
    assert cleaner.run_pass() in (False, True)

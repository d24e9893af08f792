"""Tests for release-lock stall accounting and runtime budget adjustment."""

import random

from repro.art import encode_int
from repro.systems.art_bplus import ArtBPlusSystem
from repro.systems.art_lsm import ArtLsmSystem
from repro.systems.art_multi import ArtMultiYSystem


def ikey(i: int) -> bytes:
    return encode_int(i)


def spill(system, n=12_000, seed=53):
    keys = random.Random(seed).sample(range(1 << 40), n)
    for k in keys:
        system.insert(k, b"v" * 8)
    return keys


def test_dirty_releases_charge_lock_stall():
    system = ArtBPlusSystem(128 * 1024, precleaning_enabled=False)
    spill(system)
    stats = system.index.stats
    assert stats["release_writebacks"] > 0
    assert stats["release_lock_stall_ns"] > 0


def test_routed_y_releases_charge_lock_stall():
    """The stall is measured on the engine's disk, whatever shape Y has.

    ``RoutedIndexY`` has no ``disk`` attribute of its own; reading the
    stall off Index Y exempted ART-Multi from the subtree-lock cost.
    """
    system = ArtMultiYSystem(128 * 1024, precleaning_enabled=False)
    spill(system)
    stats = system.index.stats
    assert stats["release_writebacks"] > 0
    assert stats["release_lock_stall_ns"] > 0


def test_precleaning_reduces_lock_stall():
    """The mechanism pre-cleaning exists for (Section II-B)."""
    def run(enabled):
        system = ArtLsmSystem(128 * 1024, precleaning_enabled=enabled)
        spill(system)
        return system.index.stats

    with_pc = run(True)
    without_pc = run(False)
    assert with_pc["release_keys_written"] < without_pc["release_keys_written"]
    assert with_pc["release_lock_stall_ns"] < without_pc["release_lock_stall_ns"]
    assert with_pc["release_clean_drops"] > without_pc["release_clean_drops"]


def test_clean_releases_have_zero_stall():
    system = ArtLsmSystem(10 << 20)
    keys = spill(system, n=3000)
    system.flush()  # everything clean
    system.index.set_memory_limit(32 * 1024)  # squeeze hard
    system.insert(max(keys) + 1, b"v" * 8)  # trigger the release path
    stats = system.index.stats
    assert stats["release_cycles"] >= 1
    # The only dirty key is the trigger insert itself, so the stall is
    # at most one tiny batch.
    assert stats["release_clean_drops"] >= 1


def test_set_memory_limit_tightens_budget():
    system = ArtLsmSystem(10 << 20)
    spill(system, n=4000)
    assert system.index.stats["release_cycles"] == 0
    system.index.set_memory_limit(48 * 1024)
    system.insert(999, b"trigger")
    assert system.index.stats["release_cycles"] >= 1
    assert system.index.x.memory_bytes <= 48 * 1024


def test_set_memory_limit_loosening_stops_releases():
    system = ArtLsmSystem(64 * 1024)
    spill(system, n=4000)
    cycles = system.index.stats["release_cycles"]
    assert cycles >= 1
    system.index.set_memory_limit(10 << 20)
    spill(system, n=1000, seed=99)
    assert system.index.stats["release_cycles"] == cycles

"""Ablation experiments for the framework's design choices (DESIGN.md §5).

Not from the paper's evaluation — these isolate the contribution of each
IndeXY mechanism on the ART-LSM configuration:

* access-density release (Algorithm 1) vs. coarse low-density partitions
  vs. random eviction;
* pre-cleaning on/off, and check-back on/off;
* two-watermark hysteresis vs. a near-degenerate gap;
* Index-X-as-read-cache (load-on-miss) on/off.
"""

from __future__ import annotations

import random

from repro.bench.harness import preload_into_y, read_throughput
from repro.bench.report import Criterion, format_table
from repro.core.config import IndeXYConfig
from repro.core.release import ReleasePolicy
from repro.systems.art_lsm import ArtLsmSystem
from repro.workloads import zipfian_read_keys

LIMIT = 192 * 1024
VALUE8 = b"v" * 8
THREADS = 4


def _zipf_read_study(system: ArtLsmSystem, key_space: int, reads: int, theta: float) -> dict:
    # Sorted rank->key mapping clusters the Zipfian hot set in key space,
    # so subtrees genuinely differ in access density — the regime the
    # release policy is designed for (spatial locality, Section II).
    keys = sorted(preload_into_y(system, key_space, VALUE8, seed=23))
    warm = (keys[i] for i in zipfian_read_keys(key_space, reads // 2, theta, seed=29))
    for key in warm:
        system.read(key)
    stats_before = system.index.stats.snapshot()
    measure = (keys[i] for i in zipfian_read_keys(key_space, reads, theta, seed=31))
    kops = read_throughput(system, measure, THREADS)
    delta = system.index.stats.delta(stats_before)
    hits = delta.get("x_hits", 0)
    total = hits + delta.get("y_hits", 0) + delta.get("misses", 0)
    return {"kops": kops, "x_hit_ratio": hits / total if total else 0.0}


def ablation_release_policy(
    key_space: int = 30_000, reads: int = 15_000, theta: float = 0.8
) -> dict:
    """Algorithm 1 vs. coarse vs. random eviction under skewed reads."""
    results = {}
    for kind in ("density", "coarse", "random"):
        system = ArtLsmSystem(LIMIT, release_policy=ReleasePolicy(kind))
        results[kind] = _zipf_read_study(system, key_space, reads, theta)
    rows = [[k, v["kops"], v["x_hit_ratio"]] for k, v in results.items()]
    table = format_table(
        "Ablation: release policy (Zipfian reads, S=0.8)",
        ["Policy", "KOPS", "X hit ratio"],
        rows,
    )
    return {"results": results, "table": table}


RELEASE_CRITERIA: tuple[Criterion, ...] = (
    ("density release keeps a higher X hit ratio than random eviction",
     lambda p: p["results"]["density"]["x_hit_ratio"] > p["results"]["random"]["x_hit_ratio"]),
    ("density release >= 0.95x random eviction's KOPS",
     lambda p: p["results"]["density"]["kops"] >= p["results"]["random"]["kops"] * 0.95),
)


def ablation_precleaning(n_keys: int = 20_000) -> dict:
    """Pre-cleaning on/off: release-time write-back volume and throughput."""
    results = {}
    keys = random.Random(37).sample(range(1 << 40), n_keys)
    for enabled in (True, False):
        system = ArtLsmSystem(LIMIT, precleaning_enabled=enabled)
        before = system.snapshot()
        for key in keys:
            system.insert(key, VALUE8)
        delta = before.delta(system.snapshot())
        stats = system.index.stats
        results["on" if enabled else "off"] = {
            "kops": delta.throughput_ops(THREADS, system.thread_model) / 1e3,
            "release_keys_written": stats["release_keys_written"],
            "preclean_keys_written": stats["preclean_keys_written"],
            "clean_drops": stats["release_clean_drops"],
        }
    rows = [
        [k, v["kops"], v["preclean_keys_written"], v["release_keys_written"], v["clean_drops"]]
        for k, v in results.items()
    ]
    table = format_table(
        "Ablation: pre-cleaning (random inserts)",
        ["Pre-cleaning", "KOPS", "precleaned keys", "release-written keys", "clean drops"],
        rows,
    )
    return {"results": results, "table": table}


PRECLEANING_CRITERIA: tuple[Criterion, ...] = (
    ("pre-cleaning yields more clean drops",
     lambda p: p["results"]["on"]["clean_drops"] > p["results"]["off"]["clean_drops"]),
    ("pre-cleaning leaves fewer keys to write at release",
     lambda p: p["results"]["on"]["release_keys_written"]
     < p["results"]["off"]["release_keys_written"]),
)


def ablation_checkback(n_ops: int = 20_000, key_space: int = 8_000) -> dict:
    """Check-back on/off under a skewed overwrite-heavy insert stream.

    With check-back, insert-hot regions are skipped, so repeated updates
    coalesce in Index X instead of each landing in Y.  The limit is sized
    so the key population crosses the watermarks (pre-cleaning only runs
    once unloading is on the horizon).
    """
    from repro.workloads.distributions import ZipfianGenerator

    results = {}
    for check_back in (True, False):
        system = ArtLsmSystem(48 * 1024, check_back=check_back)
        zipf = ZipfianGenerator(key_space, 0.9, seed=41)
        before = system.snapshot()
        for __ in range(n_ops):
            system.insert(zipf.next(), VALUE8)
        delta = before.delta(system.snapshot())
        stats = system.index.stats
        results["on" if check_back else "off"] = {
            "kops": delta.throughput_ops(THREADS, system.thread_model) / 1e3,
            "keys_written_to_y": stats["preclean_keys_written"]
            + stats["release_keys_written"],
        }
    rows = [[k, v["kops"], v["keys_written_to_y"]] for k, v in results.items()]
    table = format_table(
        "Ablation: check-back (Zipfian overwrites, S=0.9)",
        ["Check-back", "KOPS", "keys written to Y"],
        rows,
    )
    return {"results": results, "table": table}


CHECKBACK_CRITERIA: tuple[Criterion, ...] = (
    ("check-back writes fewer keys to Y",
     lambda p: p["results"]["on"]["keys_written_to_y"] < p["results"]["off"]["keys_written_to_y"]),
)


def ablation_watermarks(n_keys: int = 20_000) -> dict:
    """Two-watermark hysteresis vs. a near-zero gap (release thrash)."""
    results = {}
    keys = random.Random(43).sample(range(1 << 40), n_keys)
    for label, low in (("wide (0.80)", 0.80), ("narrow (0.94)", 0.94)):
        config = IndeXYConfig(
            memory_limit_bytes=LIMIT, high_watermark=0.95, low_watermark=low
        )
        system = ArtLsmSystem(LIMIT, indexy_config=config)
        before = system.snapshot()
        for key in keys:
            system.insert(key, VALUE8)
        delta = before.delta(system.snapshot())
        results[label] = {
            "kops": delta.throughput_ops(THREADS, system.thread_model) / 1e3,
            "release_cycles": system.index.stats["release_cycles"],
        }
    rows = [[k, v["kops"], v["release_cycles"]] for k, v in results.items()]
    table = format_table(
        "Ablation: watermark gap (random inserts)",
        ["Low watermark", "KOPS", "release cycles"],
        rows,
    )
    return {"results": results, "table": table}


WATERMARKS_CRITERIA: tuple[Criterion, ...] = (
    ("a narrow watermark gap runs > 4x the release cycles",
     lambda p: p["results"]["narrow (0.94)"]["release_cycles"]
     > 4 * p["results"]["wide (0.80)"]["release_cycles"]),
)


def ablation_readcache(
    key_space: int = 30_000, reads: int = 15_000, theta: float = 0.8
) -> dict:
    """Index X as the read cache (load-on-miss) vs. always reading Y."""
    results = {}
    for load in (True, False):
        system = ArtLsmSystem(LIMIT, load_on_miss=load)
        results["on" if load else "off"] = _zipf_read_study(system, key_space, reads, theta)
    rows = [[k, v["kops"], v["x_hit_ratio"]] for k, v in results.items()]
    table = format_table(
        "Ablation: load-on-miss read caching (Zipfian reads, S=0.8)",
        ["Load on miss", "KOPS", "X hit ratio"],
        rows,
    )
    return {"results": results, "table": table}


READCACHE_CRITERIA: tuple[Criterion, ...] = (
    ("load-on-miss > 1.1x the KOPS without it",
     lambda p: p["results"]["on"]["kops"] > 1.1 * p["results"]["off"]["kops"]),
    ("load-on-miss > 2x the X hit ratio without it",
     lambda p: p["results"]["on"]["x_hit_ratio"] > 2 * p["results"]["off"]["x_hit_ratio"]),
)

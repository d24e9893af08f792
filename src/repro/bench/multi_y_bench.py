"""Benchmark for the multi-Index-Y extension (Section III-G).

The paper's motivating scenario: a workload mixing random writes with
range scans "makes any single choice, such as LSM tree, suboptimal".
This bench interleaves uniform random inserts over the whole key space
with repeated scans over one sub-range, and compares the single-Y systems
against the routed two-Y prototype.
"""

from __future__ import annotations

import random

from repro.bench.report import Criterion, format_table
from repro.systems import build_system

THREADS = 4
VALUE8 = b"v" * 8


def multi_y_mixed_workload(
    n_writes: int = 8_000,
    n_scans: int = 4_000,
    scan_length: int = 50,
    limit: int = 128 * 1024,
    systems: tuple[str, ...] = ("ART-LSM", "ART-B+", "ART-Multi"),
) -> dict:
    """Interleaved random-write + ranged-scan workload."""
    results: dict[str, dict[str, float]] = {}
    rng = random.Random(19)
    write_keys = rng.sample(range(1 << 40), n_writes)
    scan_base = 1 << 39
    scan_starts = [scan_base + rng.randrange(4_000) for __ in range(n_scans)]

    for name in systems:
        kwargs = {"scan_threshold": 0.05} if name == "ART-Multi" else {}
        system = build_system(name, memory_limit_bytes=limit, **kwargs)
        # Seed the scanned sub-range so scans have data to return.
        for i in range(5_000):
            system.insert(scan_base + i, VALUE8)
        system.flush()

        before = system.snapshot()
        scan_iter = iter(scan_starts)
        per_scan = max(1, n_writes // n_scans)
        done_scans = 0
        for i, key in enumerate(write_keys):
            system.insert(key, VALUE8)
            if i % per_scan == 0 and done_scans < n_scans:
                system.scan(next(scan_iter), scan_length)
                done_scans += 1
        delta = before.delta(system.snapshot())
        elapsed_s = delta.elapsed_ns(THREADS, system.thread_model) / 1e9
        ops = n_writes + done_scans
        results[name] = {
            "kops": ops / elapsed_s / 1e3 if elapsed_s else 0.0,
        }
        if name == "ART-Multi":
            homes = system.routed.router.assignments()
            results[name]["btree_regions"] = float(
                sum(1 for h in homes.values() if h == "btree")
            )

    rows = [[name, data["kops"]] for name, data in results.items()]
    table = format_table(
        "Multi-Y extension: mixed random writes + ranged scans (KOPS)",
        ["System", "KOPS"],
        rows,
    )
    return {"results": results, "table": table}


MULTI_Y_CRITERIA: tuple[Criterion, ...] = (
    ("ART-Multi > both single-Y systems",
     lambda p: p["results"]["ART-Multi"]["kops"]
     > max(p["results"]["ART-LSM"]["kops"], p["results"]["ART-B+"]["kops"])),
    ("the router re-homed at least one region to the B+ tree",
     lambda p: p["results"]["ART-Multi"].get("btree_regions", 0) >= 1),
)

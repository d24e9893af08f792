"""Micro-benchmark and YCSB experiments (Figures 3-8, Tables I-II).

Each function runs one paper experiment at simulation scale and returns a
payload with the raw series plus a rendered table.  Scale constants are
chosen so the *ratios* that drive the paper's effects are preserved:
the memory limit sits well below the data size, working sets sweep across
the limit, and page-based systems keep their page-size/limit ratio.
"""

from __future__ import annotations

import random

from repro.bench.harness import insert_series, preload_into_y, read_throughput
from repro.bench.report import Criterion, format_background_report, format_table
from repro.systems import build_system
from repro.workloads import (
    YCSB_WORKLOADS,
    generate_ycsb_ops,
    random_insert_keys,
    run_ops,
    sequential_insert_keys,
    shifting_read_keys,
    zipfian_read_keys,
)

#: The scaled analogue of the paper's 5 GB index limit.
LIMIT = 256 * 1024
THREADS = 4
VALUE8 = b"v" * 8
THREE_SYSTEMS = ("ART-LSM", "ART-B+", "B+-B+")
FOUR_SYSTEMS = THREE_SYSTEMS + ("RocksDB",)


# ----------------------------------------------------------------------
# Table I — system compositions (descriptive)
# ----------------------------------------------------------------------
def table1_systems() -> dict:
    """Table I: verify each system is composed of the claimed indexes."""
    from repro.core.indexy import IndeXY
    from repro.diskbtree.tree import DiskBPlusTree
    from repro.lsm.store import LSMStore

    rows = []
    composition = {}
    for name in FOUR_SYSTEMS:
        system = build_system(name, memory_limit_bytes=LIMIT)
        if name == "ART-LSM":
            x, y = "ART Index", "LSM-tree Index"
            assert isinstance(system.index, IndeXY)
            assert isinstance(system.index.y, LSMStore)
        elif name == "ART-B+":
            x, y = "ART Index", "B+ Index"
            assert isinstance(system.index, IndeXY)
            assert isinstance(system.y_tree, DiskBPlusTree)
        elif name == "B+-B+":
            x, y = "B+ Index", "B+ Index"
            assert isinstance(system.tree, DiskBPlusTree)
        else:
            x, y = "RocksDB Buffer", "LSM-tree Index"
            assert isinstance(system.store, LSMStore)
        rows.append([name, x, y])
        composition[name] = {"index_x": x, "index_y": y}
    table = format_table("Table I: the four systems in comparison",
                         ["System", "Index X", "Index Y"], rows)
    return {"composition": composition, "table": table}


TABLE1_CRITERIA: tuple[Criterion, ...] = (
    ("the four compared systems are built",
     lambda p: set(p["composition"]) == set(FOUR_SYSTEMS)),
    ("ART-LSM's Index Y is the LSM tree",
     lambda p: p["composition"]["ART-LSM"]["index_y"] == "LSM-tree Index"),
    ("B+-B+'s Index X is a B+ tree",
     lambda p: p["composition"]["B+-B+"]["index_x"] == "B+ Index"),
)


# ----------------------------------------------------------------------
# Figure 3 — insert throughput and memory over time
# ----------------------------------------------------------------------
def fig3_inserts(
    order: str = "random",
    n_keys: int = 30_000,
    limit: int = LIMIT,
    chunk: int = 2_500,
    systems: tuple[str, ...] = FOUR_SYSTEMS,
) -> dict:
    """Figures 3(a-d): throughput and memory vs. keys inserted."""
    if order == "random":
        keys = random_insert_keys(n_keys, key_space=1 << 40, seed=3)
    else:
        keys = sequential_insert_keys(n_keys)
    series = {}
    for name in systems:
        system = build_system(name, memory_limit_bytes=limit)
        series[name] = insert_series(system, keys, VALUE8, chunk, THREADS)

    rows = []
    for name, samples in series.items():
        rows.append(
            [
                name,
                samples[0]["kops"],
                samples[-1]["kops"],
                max(s["memory_mb"] for s in samples),
            ]
        )
    table = format_table(
        f"Figure 3 ({order} inserts): first-chunk vs last-chunk throughput",
        ["System", "KOPS (start)", "KOPS (end)", "peak mem MB"],
        rows,
    )
    background_tables = {
        name: format_background_report(
            f"Background maintenance per slice — {name} ({order} inserts)", samples
        )
        for name, samples in series.items()
    }
    return {
        "n_keys": n_keys,
        "limit_bytes": limit,
        "series": series,
        "table": table,
        "background_tables": background_tables,
    }


def _first_kops(p: dict, name: str) -> float:
    return p["series"][name][0]["kops"]


def _last_kops(p: dict, name: str) -> float:
    return p["series"][name][-1]["kops"]


def _keys_at_saturation(samples: list[dict], fraction: float = 0.9) -> int:
    """Keys inserted when memory first reaches ``fraction`` of its peak."""
    peak = max(s["memory_mb"] for s in samples)
    return next(
        (s["keys"] for s in samples if s["memory_mb"] >= fraction * peak), samples[-1]["keys"]
    )


FIG3_RANDOM_CRITERIA: tuple[Criterion, ...] = (
    ("pre-limit: ART-LSM > 1.8x B+-B+",
     lambda p: _first_kops(p, "ART-LSM") > 1.8 * _first_kops(p, "B+-B+")),
    ("pre-limit: ART-B+ > 1.8x B+-B+",
     lambda p: _first_kops(p, "ART-B+") > 1.8 * _first_kops(p, "B+-B+")),
    ("post-limit: ART-LSM > 8x B+-B+",
     lambda p: _last_kops(p, "ART-LSM") > 8 * _last_kops(p, "B+-B+")),
    ("post-limit: ART-B+ > B+-B+",
     lambda p: _last_kops(p, "ART-B+") > _last_kops(p, "B+-B+")),
    ("ART-LSM memory stays within 1.5x the limit",
     lambda p: max(s["memory_mb"] for s in p["series"]["ART-LSM"]) <= 1.5 * LIMIT / (1 << 20)),
    ("ART-LSM reaches 90% of its peak memory no earlier than B+-B+",
     lambda p: _keys_at_saturation(p["series"]["ART-LSM"])
     >= _keys_at_saturation(p["series"]["B+-B+"])),
)

FIG3_SEQUENTIAL_CRITERIA: tuple[Criterion, ...] = (
    ("post-limit: ART-LSM > B+-B+",
     lambda p: _last_kops(p, "ART-LSM") > _last_kops(p, "B+-B+")),
)


# ----------------------------------------------------------------------
# Table II — random write throughput vs. page size
# ----------------------------------------------------------------------
def table2_pagesize(
    n_keys: int = 20_000,
    limit: int = 128 * 1024,
    page_sizes: tuple[int, ...] = (4096, 8192, 16384),
) -> dict:
    """Table II: whole-run random-insert KOPS by page size."""
    keys = random_insert_keys(n_keys, key_space=1 << 40, seed=5)
    results: dict[str, dict[int, float]] = {"B+-B+": {}, "ART-B+": {}}
    for name in results:
        for page_size in page_sizes:
            system = build_system(name, memory_limit_bytes=limit, page_size=page_size)
            before = system.snapshot()
            for key in keys:
                system.insert(key, VALUE8)
            delta = before.delta(system.snapshot())
            results[name][page_size] = delta.throughput_ops(THREADS, system.thread_model) / 1e3

    rows = [
        [name] + [results[name][p] for p in page_sizes] for name in results
    ]
    table = format_table(
        "Table II: random write throughput (KOPS) by page size",
        ["System"] + [f"{p // 1024}KB" for p in page_sizes],
        rows,
    )
    return {
        "page_sizes": list(page_sizes),
        "kops": {k: {str(p): v for p, v in d.items()} for k, d in results.items()},
        "table": table,
    }


TABLE2_CRITERIA: tuple[Criterion, ...] = (
    ("B+-B+ degrades from 4 KB to 16 KB pages",
     lambda p: p["kops"]["B+-B+"]["4096"] > p["kops"]["B+-B+"]["16384"]),
    ("ART-B+ improves from 4 KB to 16 KB pages",
     lambda p: p["kops"]["ART-B+"]["16384"] > p["kops"]["ART-B+"]["4096"]),
    ("ART-B+ > 3x B+-B+ at every page size",
     lambda p: all(p["kops"]["ART-B+"][s] > 3 * p["kops"]["B+-B+"][s]
                   for s in ("4096", "8192", "16384"))),
)


# ----------------------------------------------------------------------
# Figure 4 — throughput (bytes/s) vs. value size
# ----------------------------------------------------------------------
def fig4_valuesize(
    value_sizes: tuple[int, ...] = (8, 64, 256, 1024),
    data_factor: float = 6.0,
    limit: int = LIMIT,
    systems: tuple[str, ...] = FOUR_SYSTEMS,
) -> dict:
    """Figure 4: random-insert data throughput (MB/s of KV data).

    The key count scales with the value size so every run writes the same
    total data volume (``data_factor`` x the memory limit) — as in the
    paper, where the 800 M-key workload dwarfs the 5 GB limit at every
    value size.
    """
    results: dict[str, dict[int, float]] = {name: {} for name in systems}
    for name in systems:
        for vsize in value_sizes:
            n_keys = max(2_000, int(data_factor * limit) // (8 + vsize))
            system = build_system(name, memory_limit_bytes=limit)
            keys = random_insert_keys(n_keys, key_space=1 << 40, seed=7)
            value = b"x" * vsize
            before = system.snapshot()
            for key in keys:
                system.insert(key, value)
            delta = before.delta(system.snapshot())
            elapsed_s = delta.elapsed_ns(THREADS, system.thread_model) / 1e9
            data_mb = n_keys * (8 + vsize) / (1 << 20)
            results[name][vsize] = data_mb / elapsed_s if elapsed_s else 0.0

    rows = [[name] + [results[name][v] for v in value_sizes] for name in systems]
    table = format_table(
        "Figure 4: insert data throughput (MB/s) by value size",
        ["System"] + [f"{v}B" for v in value_sizes],
        rows,
    )
    return {
        "value_sizes": list(value_sizes),
        "mb_per_s": {k: {str(v): t for v, t in d.items()} for k, d in results.items()},
        "table": table,
    }


def _gain_64_to_1k(p: dict, name: str) -> float:
    return p["mb_per_s"][name]["1024"] / p["mb_per_s"][name]["64"]


FIG4_CRITERIA: tuple[Criterion, ...] = (
    ("B+-B+ gains more than ART-LSM from 64 B to 1 KB values",
     lambda p: _gain_64_to_1k(p, "B+-B+") > _gain_64_to_1k(p, "ART-LSM")),
    ("B+-B+ gains > 2x from 64 B to 1 KB values",
     lambda p: _gain_64_to_1k(p, "B+-B+") > 2.0),
    ("no system collapses from 8 B to 1 KB values",
     lambda p: all(mbs["1024"] > mbs["8"] * 0.5 for mbs in p["mb_per_s"].values())),
    ("ART-LSM > B+-B+ at every value size",
     lambda p: all(p["mb_per_s"]["ART-LSM"][v] > p["mb_per_s"]["B+-B+"][v]
                   for v in ("8", "64", "256", "1024"))),
)


# ----------------------------------------------------------------------
# Figure 5 — read throughput vs. working-set size
# ----------------------------------------------------------------------
def fig5_workingset(
    key_space: int = 40_000,
    working_sets: tuple[int, ...] = (50, 250, 1_000, 4_000, 8_000, 16_000, 32_000),
    reads: int = 20_000,
    limit: int = LIMIT,
    systems: tuple[str, ...] = FOUR_SYSTEMS,
) -> dict:
    """Figure 5: repeated uniform reads over working sets of varying size."""
    results: dict[str, dict[int, float]] = {name: {} for name in systems}
    for name in systems:
        system = build_system(name, memory_limit_bytes=limit)
        keys = preload_into_y(system, key_space, VALUE8, seed=97)
        for ws in working_sets:
            rng = random.Random(ws)
            working_set = rng.sample(keys, ws)
            for __ in range(min(2 * ws, reads)):  # warm-up pass
                system.read(working_set[rng.randrange(ws)])
            measure = (working_set[rng.randrange(ws)] for __ in range(reads))
            results[name][ws] = read_throughput(system, measure, THREADS)

    rows = [[name] + [results[name][ws] for ws in working_sets] for name in systems]
    table = format_table(
        "Figure 5: read throughput (KOPS) by working-set size",
        ["System"] + [f"{ws // 1000}k" if ws >= 1000 else str(ws) for ws in working_sets],
        rows,
    )
    return {
        "working_sets": list(working_sets),
        "kops": {k: {str(ws): v for ws, v in d.items()} for k, d in results.items()},
        "table": table,
    }


def _fig5_kops(p: dict, name: str, at: int) -> float:
    return p["kops"][name][str(p["working_sets"][at])]


FIG5_CRITERIA: tuple[Criterion, ...] = (
    ("smallest working set: ART-LSM > 3x B+-B+",
     lambda p: _fig5_kops(p, "ART-LSM", 0) > 3 * _fig5_kops(p, "B+-B+", 0)),
    ("smallest working set: ART-B+ > 3x B+-B+",
     lambda p: _fig5_kops(p, "ART-B+", 0) > 3 * _fig5_kops(p, "B+-B+", 0)),
    ("1k working set: ART-LSM > 5x B+-B+",
     lambda p: _fig5_kops(p, "ART-LSM", 2) > 5 * _fig5_kops(p, "B+-B+", 2)),
    ("smallest working set: RocksDB > B+-B+",
     lambda p: _fig5_kops(p, "RocksDB", 0) > _fig5_kops(p, "B+-B+", 0)),
    ("ART-LSM slows as the working set outgrows memory",
     lambda p: _fig5_kops(p, "ART-LSM", 0) > _fig5_kops(p, "ART-LSM", -1)),
)


# ----------------------------------------------------------------------
# Figure 6 — read throughput vs. Zipfian skew
# ----------------------------------------------------------------------
def fig6_zipf(
    key_space: int = 40_000,
    thetas: tuple[float, ...] = (0.5, 0.6, 0.7, 0.8, 0.9, 0.99),
    reads: int = 20_000,
    limit: int = LIMIT,
    systems: tuple[str, ...] = FOUR_SYSTEMS,
) -> dict:
    """Figure 6: Zipfian reads over the full on-disk key population."""
    results: dict[str, dict[float, float]] = {name: {} for name in systems}
    for name in systems:
        system = build_system(name, memory_limit_bytes=limit)
        keys = preload_into_y(system, key_space, VALUE8, seed=97)
        for theta in thetas:
            warm = (keys[i] for i in zipfian_read_keys(key_space, reads // 2, theta, seed=11))
            for key in warm:
                system.read(key)
            measure = (keys[i] for i in zipfian_read_keys(key_space, reads, theta, seed=13))
            results[name][theta] = read_throughput(system, measure, THREADS)

    rows = [[name] + [results[name][t] for t in thetas] for name in systems]
    table = format_table(
        "Figure 6: read throughput (KOPS) by Zipfian skewness S",
        ["System"] + [f"S={t}" for t in thetas],
        rows,
    )
    return {
        "thetas": list(thetas),
        "kops": {k: {str(t): v for t, v in d.items()} for k, d in results.items()},
        "table": table,
    }


def _skew_gain(p: dict, name: str) -> float:
    return p["kops"][name]["0.99"] / p["kops"][name]["0.5"]


FIG6_CRITERIA: tuple[Criterion, ...] = (
    ("ART-LSM gains > 2x from S=0.5 to S=0.99", lambda p: _skew_gain(p, "ART-LSM") > 2),
    ("ART-B+ gains > 2x from S=0.5 to S=0.99", lambda p: _skew_gain(p, "ART-B+") > 2),
    ("ART-LSM gains more from skew than B+-B+",
     lambda p: _skew_gain(p, "ART-LSM") > _skew_gain(p, "B+-B+")),
    ("S=0.9: ART-LSM > 1.5x B+-B+",
     lambda p: p["kops"]["ART-LSM"]["0.9"] > 1.5 * p["kops"]["B+-B+"]["0.9"]),
)


# ----------------------------------------------------------------------
# Figure 7 — shifting working set
# ----------------------------------------------------------------------
def fig7_shifting(
    key_space: int = 30_000,
    phases: int = 4,
    reads_per_phase: int = 10_000,
    access_units: tuple[int, ...] = (1, 5, 10),
    limit: int = 192 * 1024,
    sample_chunk: int = 2_000,
    systems: tuple[str, ...] = ("ART-B+", "B+-B+"),
) -> dict:
    """Figure 7: lookup throughput while the working set rotates."""
    series: dict[str, dict[int, list[dict]]] = {name: {} for name in systems}
    for name in systems:
        for unit in access_units:
            system = build_system(name, memory_limit_bytes=limit)
            keys = sorted(preload_into_y(system, key_space, VALUE8, seed=97))
            # Sorted rank->key mapping keeps the Zipfian hot region spatially
            # contiguous, so rotating the rank space rotates the key space
            # exactly as the paper describes.  An access unit of N reads N
            # continuous keys: point lookups of consecutive keys, whose
            # misses share Index Y blocks (the spatial locality the
            # transfer buffer exploits, Section II-D).
            def read_unit(rank: int, *, unit=unit, system=system, keys=keys) -> None:
                for i in range(unit):
                    system.read(keys[(rank + i) % key_space])

            # Pre-warm with the phase-0 distribution.
            for __p, rank, __u in shifting_read_keys(
                key_space, 1, min(reads_per_phase, 6000), access_unit=unit, seed=5
            ):
                read_unit(rank)
            samples = []
            previous = system.snapshot()
            kv_reads = 0
            for phase, rank, __u in shifting_read_keys(
                key_space, phases, reads_per_phase, access_unit=unit, seed=7
            ):
                read_unit(rank)
                kv_reads += unit
                if kv_reads % sample_chunk < unit:
                    current = system.snapshot()
                    delta = previous.delta(current)
                    elapsed_s = delta.elapsed_ns(THREADS, system.thread_model) / 1e9
                    samples.append(
                        {
                            "phase": phase,
                            "kv_reads": kv_reads,
                            "kops": (sample_chunk / elapsed_s / 1e3) if elapsed_s else 0.0,
                        }
                    )
                    previous = current
            series[name][unit] = samples

    rows = []
    for name in systems:
        for unit in access_units:
            samples = series[name][unit]
            avg = sum(s["kops"] for s in samples) / max(1, len(samples))
            rows.append([name, unit, avg, min(s["kops"] for s in samples)])
    table = format_table(
        "Figure 7: shifting working set — lookup throughput (KOPS)",
        ["System", "Access unit", "avg KOPS", "min KOPS"],
        rows,
    )
    return {
        "access_units": list(access_units),
        "series": {k: {str(u): s for u, s in d.items()} for k, d in series.items()},
        "table": table,
    }


def _avg_kops(samples: list[dict]) -> float:
    return sum(s["kops"] for s in samples) / len(samples)


def _fig7_avg(p: dict, name: str, unit: str) -> float:
    return _avg_kops(p["series"][name][unit])


FIG7_CRITERIA: tuple[Criterion, ...] = (
    ("ART-B+ > B+-B+ at every access unit",
     lambda p: all(_fig7_avg(p, "ART-B+", u) > _fig7_avg(p, "B+-B+", u) for u in ("1", "5", "10"))),
    ("ART-B+: access unit 5 > 2.5x unit 1",
     lambda p: _fig7_avg(p, "ART-B+", "5") > 2.5 * _fig7_avg(p, "ART-B+", "1")),
    ("ART-B+: access unit 10 > 4x unit 1",
     lambda p: _fig7_avg(p, "ART-B+", "10") > 4 * _fig7_avg(p, "ART-B+", "1")),
    ("ART-B+ unit 1 dips below its average at a phase change",
     lambda p: min(s["kops"] for s in p["series"]["ART-B+"]["1"]) < _fig7_avg(p, "ART-B+", "1")),
    ("ART-B+ unit 1 recovers above its average",
     lambda p: max(s["kops"] for s in p["series"]["ART-B+"]["1"]) > _fig7_avg(p, "ART-B+", "1")),
)


# ----------------------------------------------------------------------
# Figure 8 — YCSB
# ----------------------------------------------------------------------
def fig8_ycsb(
    record_count: int = 30_000,
    operation_count: int = 12_000,
    theta: float = 0.7,
    limit: int = LIMIT,
    systems: tuple[str, ...] = THREE_SYSTEMS,
    workloads: tuple[str, ...] = ("Load", "A", "B", "C", "D", "E", "F"),
) -> dict:
    """Figure 8: throughput across YCSB Load and A-F."""
    results: dict[str, dict[str, float]] = {name: {} for name in systems}
    for name in systems:
        for wl in workloads:
            system = build_system(name, memory_limit_bytes=limit)
            spec = YCSB_WORKLOADS[wl]
            if wl == "Load":
                ops = generate_ycsb_ops(spec, record_count, record_count, theta)
                before = system.snapshot()
                executed = run_ops(system, ops, value_size=8)
            else:
                load = generate_ycsb_ops(YCSB_WORKLOADS["Load"], record_count, record_count, theta)
                run_ops(system, load, value_size=8)
                system.flush()
                ops = generate_ycsb_ops(spec, record_count, operation_count, theta, seed=17)
                before = system.snapshot()
                executed = run_ops(system, ops, value_size=8)
            delta = before.delta(system.snapshot())
            elapsed_s = delta.elapsed_ns(THREADS, system.thread_model) / 1e9
            results[name][wl] = executed / elapsed_s / 1e3 if elapsed_s else 0.0

    rows = [[name] + [results[name][wl] for wl in workloads] for name in systems]
    table = format_table(
        "Figure 8: YCSB throughput (KOPS, Zipfian S=0.7)",
        ["System"] + list(workloads),
        rows,
    )
    return {
        "workloads": list(workloads),
        "kops": results,
        "table": table,
    }


def _ycsb(p: dict, name: str, workload: str) -> float:
    return p["kops"][name][workload]


FIG8_CRITERIA: tuple[Criterion, ...] = (
    ("Load: ART-LSM > 10x B+-B+",
     lambda p: _ycsb(p, "ART-LSM", "Load") > 10 * _ycsb(p, "B+-B+", "Load")),
    ("Load: ART-B+ > 5x B+-B+",
     lambda p: _ycsb(p, "ART-B+", "Load") > 5 * _ycsb(p, "B+-B+", "Load")),
    ("B+-B+: C > A", lambda p: _ycsb(p, "B+-B+", "C") > _ycsb(p, "B+-B+", "A")),
    ("ART-LSM > B+-B+ on A, B, C, D and F",
     lambda p: all(_ycsb(p, "ART-LSM", w) > _ycsb(p, "B+-B+", w) for w in "ABCDF")),
    ("ART-B+ > B+-B+ on A, B, C, D and F",
     lambda p: all(_ycsb(p, "ART-B+", w) > _ycsb(p, "B+-B+", w) for w in "ABCDF")),
    ("ART-LSM: E < D / 2",
     lambda p: _ycsb(p, "ART-LSM", "E") < _ycsb(p, "ART-LSM", "D") / 2),
    ("E: ART-LSM <= 1.2x B+-B+",
     lambda p: _ycsb(p, "ART-LSM", "E") <= 1.2 * _ycsb(p, "B+-B+", "E")),
)

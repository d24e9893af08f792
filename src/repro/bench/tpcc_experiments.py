"""TPC-C experiments (Figures 9, 10, 11).

One engine run per backend collects the full CPU/disk timeline; thread
counts are then evaluated analytically through the thread model (the same
run serves every thread count, as the simulated work is identical — only
the overlap changes).  Samples are split into the paper's two phases:
phase 1 before the memory limit is reached, phase 2 after.
"""

from __future__ import annotations

from repro.bench.report import Criterion, format_table
from repro.core.indexy import IndeXY
from repro.tpcc.engine import TpccConfig, TpccEngine

TPCC_BACKENDS = ("ART-LSM", "ART-B+", "B+-B+")
THREAD_COUNTS = (2, 4, 8, 16)


def _default_config(backend: str, page_size: int = 4096) -> TpccConfig:
    return TpccConfig(
        warehouses=4,
        districts_per_warehouse=10,
        customers_per_district=100,
        items=500,
        memory_limit_bytes=1_200 * 1024,
        page_size=page_size,
        orderline_backend=backend,
    )


def run_tpcc_timeline(
    backend: str,
    transactions: int = 6_000,
    chunk: int = 500,
    page_size: int = 4096,
    config: TpccConfig | None = None,
) -> list[dict]:
    """Run the mix once, sampling work counters every ``chunk`` txns.

    Each sample carries the delta CPU/background/disk work, the release
    count so far (phase detection), and memory/disk byte counters.
    """
    engine = TpccEngine(config or _default_config(backend, page_size))
    samples: list[dict] = []
    previous = engine.snapshot()
    for done in range(chunk, transactions + 1, chunk):
        engine.run(chunk)
        current = engine.snapshot()
        delta = previous.delta(current)
        releases = 0
        if isinstance(engine.orderline, IndeXY):
            releases = engine.orderline.stats["release_cycles"]
        else:
            releases = engine.disk.stats["writes"] > 0 and 1 or 0
        samples.append(
            {
                "txns": done,
                "delta": delta,
                "releases": releases,
                "memory_mb": engine.memory_bytes / (1 << 20),
                "thread_model": engine.thread_model,
            }
        )
        previous = current
    return samples


def _phase_throughputs(samples: list[dict], threads: int) -> tuple[float, float]:
    """(peak phase-1 KTPS, mean phase-2 KTPS) for a thread count."""
    model = samples[0]["thread_model"]
    phase1, phase2 = [], []
    for sample in samples:
        delta = sample["delta"]
        ktps = delta.throughput_ops(threads, model) / 1e3
        if sample["releases"] == 0:
            phase1.append(ktps)
        else:
            phase2.append(ktps)
    peak1 = max(phase1) if phase1 else 0.0
    mean2 = sum(phase2) / len(phase2) if phase2 else 0.0
    return peak1, mean2


def fig9_tpcc_threads(
    transactions: int = 6_000,
    backends: tuple[str, ...] = TPCC_BACKENDS,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> dict:
    """Figure 9: TPC-C throughput by thread count, 4 KB pages."""
    timelines = {b: run_tpcc_timeline(b, transactions) for b in backends}
    results: dict[str, dict[int, dict[str, float]]] = {}
    rows = []
    for backend, samples in timelines.items():
        results[backend] = {}
        for threads in thread_counts:
            peak1, mean2 = _phase_throughputs(samples, threads)
            results[backend][threads] = {"in_memory_ktps": peak1, "on_disk_ktps": mean2}
            rows.append([backend, threads, peak1, mean2])
    table = format_table(
        "Figure 9: TPC-C throughput (KTPS) — phase 1 peak / phase 2 mean",
        ["Backend", "Threads", "in-memory KTPS", "on-disk KTPS"],
        rows,
    )
    return {
        "thread_counts": list(thread_counts),
        "ktps": {b: {str(t): v for t, v in d.items()} for b, d in results.items()},
        "table": table,
    }


def _scaling_criteria(key: str) -> tuple[Criterion, ...]:
    """Fig 9's and Fig 11's shared claims over ``p[key][backend][threads]``."""

    def at(p: dict, backend: str, threads: int, phase: str) -> float:
        return p[key][backend][str(threads)][phase]

    return (
        ("in-memory: 16 threads > 3x 2 threads, every backend",
         lambda p: all(at(p, b, 16, "in_memory_ktps") > 3 * at(p, b, 2, "in_memory_ktps")
                       for b in TPCC_BACKENDS)),
        ("on-disk: 16 threads < 2x 2 threads, every backend",
         lambda p: all(at(p, b, 16, "on_disk_ktps") < 2 * at(p, b, 2, "on_disk_ktps")
                       for b in TPCC_BACKENDS)),
    )


def _fig9(p: dict, backend: str, threads: int, phase: str) -> float:
    return p["ktps"][backend][str(threads)][phase]


FIG9_CRITERIA: tuple[Criterion, ...] = _scaling_criteria("ktps") + (
    ("the slowest in-memory point beats the fastest on-disk point, every backend",
     lambda p: all(min(_fig9(p, b, t, "in_memory_ktps") for t in THREAD_COUNTS)
                   > max(_fig9(p, b, t, "on_disk_ktps") for t in THREAD_COUNTS)
                   for b in TPCC_BACKENDS)),
    ("on-disk: ART-LSM > ART-B+ at every thread count",
     lambda p: all(_fig9(p, "ART-LSM", t, "on_disk_ktps") > _fig9(p, "ART-B+", t, "on_disk_ktps")
                   for t in THREAD_COUNTS)),
    ("on-disk: ART-LSM > B+-B+ at every thread count",
     lambda p: all(_fig9(p, "ART-LSM", t, "on_disk_ktps") > _fig9(p, "B+-B+", t, "on_disk_ktps")
                   for t in THREAD_COUNTS)),
)


def fig10_tpcc_pagesize(
    transactions: int = 5_000,
    page_sizes: tuple[int, ...] = (4096, 8192, 16384),
    backends: tuple[str, ...] = ("ART-B+", "B+-B+"),
    threads: int = 8,
) -> dict:
    """Figure 10: TPC-C second-phase throughput by page size."""
    results: dict[str, dict[int, float]] = {b: {} for b in backends}
    for backend in backends:
        for page_size in page_sizes:
            samples = run_tpcc_timeline(backend, transactions, page_size=page_size)
            __, mean2 = _phase_throughputs(samples, threads)
            results[backend][page_size] = mean2
    rows = [[b] + [results[b][p] for p in page_sizes] for b in backends]
    table = format_table(
        "Figure 10: TPC-C on-disk-phase throughput (KTPS) by page size",
        ["Backend"] + [f"{p // 1024}KB" for p in page_sizes],
        rows,
    )
    return {
        "page_sizes": list(page_sizes),
        "ktps": {b: {str(p): v for p, v in d.items()} for b, d in results.items()},
        "table": table,
    }


FIG10_CRITERIA: tuple[Criterion, ...] = (
    ("ART-B+ and B+-B+ both faster at 16 KB than at 4 KB pages",
     lambda p: all(p["ktps"][b]["16384"] > p["ktps"][b]["4096"] for b in ("ART-B+", "B+-B+"))),
    ("B+-B+: 16 KB > 1.5x 4 KB pages",
     lambda p: p["ktps"]["B+-B+"]["16384"] > 1.5 * p["ktps"]["B+-B+"]["4096"]),
)


def fig11_scaling(
    transactions: int = 6_000,
    backends: tuple[str, ...] = TPCC_BACKENDS,
    thread_counts: tuple[int, ...] = THREAD_COUNTS,
) -> dict:
    """Figure 11: in-memory vs. on-disk scaling plus disk I/O throughput."""
    timelines = {b: run_tpcc_timeline(b, transactions) for b in backends}
    rows = []
    results: dict[str, dict[str, dict[str, float]]] = {}
    for backend, samples in timelines.items():
        model = samples[0]["thread_model"]
        results[backend] = {}
        for threads in thread_counts:
            peak1, mean2 = _phase_throughputs(samples, threads)
            phase2 = [s for s in samples if s["releases"] > 0]
            if phase2:
                disk_mb = sum(
                    s["delta"].disk_mb_per_s(threads, model) for s in phase2
                ) / len(phase2)
            else:
                disk_mb = 0.0
            results[backend][str(threads)] = {
                "in_memory_ktps": peak1,
                "on_disk_ktps": mean2,
                "disk_mb_per_s": disk_mb,
            }
            rows.append([backend, threads, peak1, mean2, disk_mb])
    table = format_table(
        "Figure 11: scaling — in-memory KTPS / on-disk KTPS / disk MB/s",
        ["Backend", "Threads", "in-mem KTPS", "on-disk KTPS", "disk MB/s"],
        rows,
    )
    return {
        "thread_counts": list(thread_counts),
        "results": results,
        "table": table,
    }


FIG11_CRITERIA: tuple[Criterion, ...] = _scaling_criteria("results") + (
    ("8 threads on disk: ART-LSM moves more MB/s than B+-B+",
     lambda p: p["results"]["ART-LSM"]["8"]["disk_mb_per_s"]
     > p["results"]["B+-B+"]["8"]["disk_mb_per_s"]),
)

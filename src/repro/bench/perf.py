"""Wall-clock microbenchmark harness (``python -m repro.bench.perf``).

``repro.bench`` reports *simulated* time and must stay byte-identical
across refactors; this module instead times the implementation itself —
how much wall-clock time the Python hot paths burn per operation.  The
two are deliberately decoupled: an optimization is only admissible when
it moves the numbers here while leaving ``results/*.json`` untouched.

Results accumulate in ``BENCH_perf.json`` at the repository root as a
*trajectory*: one entry per recorded point (typically one per PR), so
the history of the repo's wall-clock performance travels with the code.

Usage::

    python -m repro.bench.perf                  # full scale, update BENCH_perf.json
    python -m repro.bench.perf --quick          # CI scale (smaller, no file update)
    python -m repro.bench.perf --label PR3      # record/replace an explicit label
    python -m repro.bench.perf --only art_random_insert --no-write

``--quick`` never rewrites the committed trajectory by default (CI
uploads its refreshed copy as an artifact via ``--out``); full runs
replace the entry with the same label or append a new one.

Harness hygiene: the cyclic GC is collected and disabled around every
timed region, and each benchmark reports the *median* wall time over
``--repeat`` runs (expensive end-to-end benchmarks are capped at one
repeat via ``_REPEATS``).

See EXPERIMENTS.md ("Wall-clock vs. simulated time") for methodology.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import statistics
import sys
from pathlib import Path

# Wall-clock measurement is this module's whole purpose; the simulation
# itself must keep using SimClock.
from time import perf_counter  # reprolint: allow[RL004]
from typing import Callable

VALUE8 = b"v" * 8

#: (full, quick) operation counts per benchmark.
_SCALES = {
    "art_random_insert": (50_000, 8_000),
    "art_search": (50_000, 8_000),
    "art_bulk_load": (50_000, 8_000),
    "memtable_put": (30_000, 6_000),
    "rocksdb_insert": (30_000, 6_000),
    "bplus_insert": (20_000, 4_000),
    "kv_get_many": (20_000, 4_000),
    "page_codec": (2_000, 400),
    "fig3_random_e2e": (30_000, 6_000),
    "serve_sharded": (16_000, 3_000),
    "serve_skew": (60_000, 12_000),
    "serve_skew_budget": (30_000, 8_000),
    "check_deep": (1, 1),  # n = full-tree analysis passes, not ops
}

#: per-benchmark caps on the repeat count (1 for the expensive
#: end-to-end runs); the reported wall time is the median over repeats.
_REPEATS = {
    "fig3_random_e2e": 1,
    "serve_sharded": 1,
    "serve_skew": 1,
    "serve_skew_budget": 1,
    "check_deep": 1,
}
_DEFAULT_REPEATS = 3


def _encoded_random_keys(n: int, seed: int = 3) -> list[bytes]:
    from repro.art.keys import encode_int
    from repro.workloads import random_insert_keys

    return [encode_int(k) for k in random_insert_keys(n, key_space=1 << 40, seed=seed)]


# ----------------------------------------------------------------------
# individual benchmarks — each returns (ops, wall_seconds)
# ----------------------------------------------------------------------
def _bench_art_random_insert(n: int) -> tuple[int, float]:
    from repro.art.tree import AdaptiveRadixTree
    from repro.sim.clock import SimClock

    keys = _encoded_random_keys(n)
    tree = AdaptiveRadixTree(clock=SimClock())  # reprolint: allow[RL001]
    insert = tree.insert
    t0 = perf_counter()
    for key in keys:
        insert(key, VALUE8)
    return n, perf_counter() - t0


def _bench_art_search(n: int) -> tuple[int, float]:
    from repro.art.tree import AdaptiveRadixTree
    from repro.sim.clock import SimClock

    keys = _encoded_random_keys(n)
    tree = AdaptiveRadixTree(clock=SimClock())  # reprolint: allow[RL001]
    for key in keys:
        tree.insert(key, VALUE8)
    search = tree.search
    t0 = perf_counter()
    for key in keys:
        search(key)
    return n, perf_counter() - t0


def _bench_art_bulk_load(n: int) -> tuple[int, float]:
    """Sorted-run load; uses the batched API when the tree grows one."""
    from repro.art.tree import AdaptiveRadixTree
    from repro.sim.clock import SimClock

    pairs = [(key, VALUE8) for key in sorted(set(_encoded_random_keys(n)))]
    tree = AdaptiveRadixTree(clock=SimClock())  # reprolint: allow[RL001]
    loader = getattr(tree, "bulk_load_sorted", None)
    t0 = perf_counter()
    if loader is not None:
        loader(pairs)
    else:
        insert = tree.insert
        for key, value in pairs:
            insert(key, value)
    return len(pairs), perf_counter() - t0


def _bench_memtable_put(n: int) -> tuple[int, float]:
    from repro.lsm.memtable import MemTable
    from repro.sim.clock import SimClock

    keys = _encoded_random_keys(n)
    table = MemTable(clock=SimClock())  # reprolint: allow[RL001]
    put = table.put
    t0 = perf_counter()
    for key in keys:
        put(key, VALUE8)
    return n, perf_counter() - t0


def _bench_rocksdb_insert(n: int) -> tuple[int, float]:
    """Memtable + SSTable flush + compaction via the RocksDB-like system."""
    from repro.systems import build_system
    from repro.workloads import random_insert_keys

    keys = random_insert_keys(n, key_space=1 << 40, seed=3)
    system = build_system("RocksDB", memory_limit_bytes=64 * 1024)
    put_many = getattr(system, "put_many", None)
    t0 = perf_counter()
    if put_many is not None:
        put_many(keys, VALUE8)
    else:
        insert = system.insert
        for key in keys:
            insert(key, VALUE8)
    return n, perf_counter() - t0


def _bench_bplus_insert(n: int) -> tuple[int, float]:
    """Disk B+ tree + buffer pool + page codec via the B+-B+ system."""
    from repro.systems import build_system
    from repro.workloads import random_insert_keys

    keys = random_insert_keys(n, key_space=1 << 40, seed=3)
    system = build_system("B+-B+", memory_limit_bytes=64 * 1024)
    put_many = getattr(system, "put_many", None)
    t0 = perf_counter()
    if put_many is not None:
        put_many(keys, VALUE8)
    else:
        insert = system.insert
        for key in keys:
            insert(key, VALUE8)
    return n, perf_counter() - t0


def _bench_kv_get_many(n: int) -> tuple[int, float]:
    """Batched point reads against a preloaded ART-LSM system."""
    from repro.systems import build_system
    from repro.workloads import random_insert_keys

    keys = random_insert_keys(n, key_space=1 << 40, seed=3)
    system = build_system("ART-LSM", memory_limit_bytes=64 * 1024)
    for key in keys:
        system.insert(key, VALUE8)
    system.flush()
    get_many = getattr(system, "get_many", None)
    t0 = perf_counter()
    if get_many is not None:
        get_many(keys)
    else:
        read = system.read
        for key in keys:
            read(key)
    return n, perf_counter() - t0


def _bench_page_codec(n: int) -> tuple[int, float]:
    """Encode+decode round trips of a 64-entry leaf page."""
    from repro.diskbtree.page import LeafPage, decode_page, encode_page

    leaf = LeafPage()
    for i in range(64):
        leaf.keys.append(i.to_bytes(8, "big"))
        leaf.values.append(VALUE8)
    leaf.next_leaf = 7
    t0 = perf_counter()
    for _ in range(n):
        decode_page(encode_page(leaf))
    return n, perf_counter() - t0


def _bench_fig3_random_e2e(n: int) -> tuple[int, float]:
    """The Figure 3 random-insert workload, all four systems, no file I/O."""
    from repro.bench.harness import insert_series
    from repro.systems import build_system
    from repro.workloads import random_insert_keys

    keys = random_insert_keys(n, key_space=1 << 40, seed=3)
    chunk = max(1, n // 12)
    t0 = perf_counter()
    for name in ("ART-LSM", "ART-B+", "B+-B+", "RocksDB"):
        system = build_system(name, memory_limit_bytes=256 * 1024)
        insert_series(system, keys, VALUE8, chunk, threads=4)
    return 4 * n, perf_counter() - t0


def _bench_serve_skew(n: int) -> tuple[int, float, dict]:
    """Open-loop skewed serving with elastic rebalancing off, then on.

    The wall time covers both runs end to end; the ``serve_skew`` extra
    records the *simulated* steady-state latency percentiles per side,
    the migration counters, and the p99 improvement the elastic
    resharding layer exists to deliver (see ``repro.bench.serve
    --skew`` and DESIGN.md §11).
    """
    from repro.bench.serve import run_serve_skew

    keys = max(2_000, n // 12)
    per: dict[str, dict] = {}
    t0 = perf_counter()
    for label, spec in (("off", None), ("on", "threshold:2.2+cooldown:8")):
        r = run_serve_skew(
            system="ART-LSM", shards=4, ops=n, keys=keys, seed=7, rebalance=spec
        )
        per[label] = {
            k: r[k]
            for k in ("p50_us", "p95_us", "p99_us", "migrations", "keys_moved")
        }
    wall = perf_counter() - t0
    ratio = per["off"]["p99_us"] / per["on"]["p99_us"] if per["on"]["p99_us"] else 0.0
    extra = {"serve_skew": {**per, "p99_improvement": round(ratio, 2)}}
    return 2 * n, wall, extra


def _bench_serve_skew_budget(n: int) -> tuple[int, float, dict]:
    """Three-way elastic-memory comparison at 4 shards, same total memory.

    fixed-equal (boundary diffusion only, budgets pinned equal) vs
    heat-proportional (the fleet controller re-splits the global limit
    by shard heat) vs heat + split/merge (structural fleet elasticity on
    top: the planner splits the hot shard when its decayed busy time
    clears ``split_load``).  The ``serve_skew_budget`` extra records the
    simulated latency percentiles, fleet counters, and p99 ratios vs the
    fixed-equal baseline (see DESIGN.md §11.4 and EXPERIMENTS.md).
    """
    from repro.bench.serve import run_serve_skew

    keys = max(2_000, n // 6)
    diffusion = "threshold:2.2+cooldown:8"
    structural = diffusion + "+max_shards:6+split_load:500000+merge_load:20000"
    per: dict[str, dict] = {}
    t0 = perf_counter()
    for label, spec, budget in (
        ("fixed_equal", diffusion, None),
        ("heat_budget", diffusion, "on"),
        ("heat_fleet", structural, "on"),
    ):
        r = run_serve_skew(
            system="ART-LSM",
            shards=4,
            ops=n,
            keys=keys,
            seed=7,
            rebalance=spec,
            budget=budget,
        )
        per[label] = {
            k: r[k]
            for k in (
                "p50_us",
                "p95_us",
                "p99_us",
                "migrations",
                "keys_moved",
                "budget_resplits",
                "splits",
                "merges",
                "final_shards",
            )
        }
    wall = perf_counter() - t0
    base = per["fixed_equal"]["p99_us"]
    extra = {
        "serve_skew_budget": {
            **per,
            "p99_budget_improvement": round(
                base / per["heat_budget"]["p99_us"] if per["heat_budget"]["p99_us"] else 0.0, 2
            ),
            "p99_fleet_improvement": round(
                base / per["heat_fleet"]["p99_us"] if per["heat_fleet"]["p99_us"] else 0.0, 2
            ),
        }
    }
    return 3 * n, wall, extra


def _bench_serve_sharded(n: int) -> tuple[int, float, dict]:
    """Closed-loop concurrent serving at 1 and 4 shards (see repro.bench.serve).

    The wall time covers both configurations end to end (preload +
    serve); the ``serve`` extra records the *simulated* aggregate
    throughput and latency percentiles per shard count, plus the
    4-shard speedup the sharded serving layer exists to deliver.
    """
    from repro.bench.serve import run_serve

    keys = max(2_000, n // 4)
    per: dict[str, dict] = {}
    t0 = perf_counter()
    for shards in (1, 4):
        r = run_serve(system="ART-LSM", shards=shards, clients=16, ops=n, keys=keys, seed=7)
        per[str(shards)] = {
            k: r[k] for k in ("throughput_kops", "p50_us", "p95_us", "p99_us")
        }
    wall = perf_counter() - t0
    speedup = per["4"]["throughput_kops"] / per["1"]["throughput_kops"]
    extra = {"serve": {**per, "speedup_4sh_vs_1sh": round(speedup, 2)}}
    return 2 * n, wall, extra


def _bench_check_deep(n: int) -> tuple[int, float]:
    """The full static-analysis stack (shallow + RL1xx/2xx/3xx) over src/repro.

    Times what the CI lint-check gate pays: all four rule layers over
    the shipped tree, ``n`` passes end to end.  Reported ops are files
    analyzed, so per-op is the per-file cost of the whole stack.  A
    non-empty finding list fails the run — the perf trend is only
    meaningful over a clean tree.
    """
    from repro.check.chargecheck import charge_lint_paths
    from repro.check.deepcheck import deep_lint_paths
    from repro.check.racecheck import race_lint_paths
    from repro.check.reprolint import lint_paths

    src = Path(__file__).resolve().parents[1]
    files = [p for p in sorted(src.rglob("*.py")) if "tests" not in p.parts]
    findings: list = []
    t0 = perf_counter()
    for _ in range(n):
        findings = [
            *lint_paths([src]),
            *deep_lint_paths([src]),
            *race_lint_paths([src]),
            *charge_lint_paths([src]),
        ]
    wall = perf_counter() - t0
    if findings:
        raise RuntimeError(f"deep lint found {len(findings)} finding(s) during perf run")
    return n * len(files), wall


_BENCHMARKS: dict[str, Callable[[int], tuple]] = {
    "art_random_insert": _bench_art_random_insert,
    "art_search": _bench_art_search,
    "art_bulk_load": _bench_art_bulk_load,
    "memtable_put": _bench_memtable_put,
    "rocksdb_insert": _bench_rocksdb_insert,
    "bplus_insert": _bench_bplus_insert,
    "kv_get_many": _bench_kv_get_many,
    "page_codec": _bench_page_codec,
    "fig3_random_e2e": _bench_fig3_random_e2e,
    "serve_sharded": _bench_serve_sharded,
    "serve_skew": _bench_serve_skew,
    "serve_skew_budget": _bench_serve_skew_budget,
    "check_deep": _bench_check_deep,
}


# ----------------------------------------------------------------------
# harness
# ----------------------------------------------------------------------
def _timed_once(fn: Callable[[int], tuple], n: int) -> tuple:
    """One benchmark run with the cyclic GC pinned off.

    A collection landing inside a timed region adds milliseconds of
    noise unrelated to the code under test; collecting up front and
    disabling the collector keeps repeats comparable.
    """
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        return fn(n)
    finally:
        if was_enabled:
            gc.enable()


def run_benchmarks(
    quick: bool = False, only: list[str] | None = None, repeat: int | None = None
) -> dict[str, dict]:
    """Run the suite; returns ``{name: {"ops", "wall_s", "per_op_us", ...}}``.

    The reported wall time is the *median* over the repeats (robust to
    one-off scheduler hiccups in either direction, unlike best-of-N
    which systematically underestimates).  ``repeat`` overrides the
    default count; per-benchmark ``_REPEATS`` caps still apply.
    """
    results: dict[str, dict] = {}
    for name, fn in _BENCHMARKS.items():
        if only and name not in only:
            continue
        n = _SCALES[name][1 if quick else 0]
        repeats = repeat if repeat is not None else _DEFAULT_REPEATS
        repeats = min(repeats, _REPEATS.get(name, repeats))
        walls = []
        ops = n
        extra: dict | None = None
        for _ in range(max(1, repeats)):
            out = _timed_once(fn, n)
            if len(out) == 3:
                ops, wall, extra = out
            else:
                ops, wall = out
            walls.append(wall)
        wall = statistics.median(walls)
        entry = {
            "ops": ops,
            "wall_s": round(wall, 6),
            "per_op_us": round(wall / ops * 1e6, 4),
        }
        if extra:
            entry.update(extra)
        results[name] = entry
        print(f"  {name:<20} {ops:>8} ops   {wall:8.3f} s   {wall / ops * 1e6:9.3f} us/op")
    return results


def default_output_path() -> Path:
    return Path(__file__).resolve().parents[3] / "BENCH_perf.json"


def load_trajectory(path: Path) -> dict:
    if path.exists():
        with path.open("r", encoding="utf-8") as fh:
            return json.load(fh)
    return {"schema": 1, "trajectory": []}


def format_delta(baseline: dict, current: dict[str, dict]) -> str:
    """Per-benchmark speedup of ``current`` vs a trajectory ``baseline`` entry."""
    lines = [f"Delta vs '{baseline.get('label', '?')}' (speedup = baseline us/op ÷ new us/op):"]
    base_benches = baseline.get("benchmarks", {})
    for name, entry in current.items():
        base = base_benches.get(name)
        if base is None or not entry["per_op_us"]:
            lines.append(f"  {name:<20} (no baseline)")
            continue
        speedup = base["per_op_us"] / entry["per_op_us"]
        lines.append(
            f"  {name:<20} {base['per_op_us']:9.3f} -> {entry['per_op_us']:9.3f} us/op   "
            f"{speedup:5.2f}x"
        )
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.bench.perf", description=__doc__)
    parser.add_argument("--quick", action="store_true", help="CI scale; implies --no-write")
    parser.add_argument("--label", default="current", help="trajectory entry label")
    parser.add_argument("--only", action="append", help="run only the named benchmark(s)")
    parser.add_argument("--no-write", action="store_true", help="measure and print only")
    parser.add_argument("--out", type=Path, default=None, help="trajectory file path")
    parser.add_argument(
        "--repeat", type=int, default=None, help=f"repeats per benchmark (default {_DEFAULT_REPEATS})"
    )
    args = parser.parse_args(argv)

    unknown = [n for n in args.only or [] if n not in _BENCHMARKS]
    if unknown:
        print(f"unknown benchmark(s): {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(_BENCHMARKS)}", file=sys.stderr)
        return 2

    mode = "quick" if args.quick else "full"
    repeats = args.repeat if args.repeat is not None else _DEFAULT_REPEATS
    print(f"repro.bench.perf ({mode} scale, median of {repeats}, gc pinned):")
    benches = run_benchmarks(quick=args.quick, only=args.only, repeat=args.repeat)

    out = args.out if args.out is not None else default_output_path()
    data = load_trajectory(out)
    trajectory = data.setdefault("trajectory", [])
    comparable = [e for e in trajectory if e.get("mode", "full") == mode]
    if comparable:
        print()
        print(format_delta(comparable[-1], benches))

    write = args.out is not None or not (args.no_write or args.quick)
    if write:
        entry = {
            "label": args.label,
            "mode": mode,
            "python": platform.python_version(),
            "platform": platform.platform(),
            "benchmarks": benches,
        }
        if args.only:
            # partial runs patch benchmarks into the labelled entry
            for existing in trajectory:
                if existing.get("label") == args.label and existing.get("mode") == mode:
                    existing["benchmarks"].update(benches)
                    entry = None
                    break
        else:
            for i, existing in enumerate(trajectory):
                if existing.get("label") == args.label and existing.get("mode") == mode:
                    trajectory[i] = entry
                    entry = None
                    break
        if entry is not None:
            trajectory.append(entry)
        with out.open("w", encoding="utf-8") as fh:
            json.dump(data, fh, indent=2)
            fh.write("\n")
        print(f"\nwrote {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

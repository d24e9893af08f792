"""End-to-end determinism regression tests.

The wall-clock optimizations (batched hot paths, the parallel bench
runner) must never change simulated results: every experiment is a pure
function of its fixed seeds.  These tests run a small experiment through
the real CLI — twice serially and once under ``--parallel`` — and
byte-compare the JSON output against the files committed under
``results/``.  Any drift (a reordered float addition, an int that became
a float, a disk op that changed sequential/random classification) fails
here before it can silently corrupt the figure trajectory.

Runs are redirected to a temporary directory via ``REPRO_RESULTS_DIR``
so a failing run cannot clobber the committed files it is judged
against.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

from repro.bench.__main__ import EXPERIMENTS

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

#: small experiments (sub-second each) with committed results files.
FAST = ("table1", "ablation_checkback")


def result_file(name: str) -> str:
    return f"{EXPERIMENTS[name].stem}.json"


def run_bench(args: list[str], results_dir: Path) -> subprocess.CompletedProcess[str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RESULTS_DIR"] = str(results_dir)
    return subprocess.run(
        [sys.executable, "-m", "repro.bench", *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
        check=True,
    )


def test_serial_rerun_is_byte_identical_to_committed(tmp_path):
    filename = result_file("table1")
    committed = (REPO / "results" / filename).read_bytes()
    first = run_bench(["table1"], tmp_path / "run1")
    second = run_bench(["table1"], tmp_path / "run2")
    assert (tmp_path / "run1" / filename).read_bytes() == committed
    assert (tmp_path / "run2" / filename).read_bytes() == committed
    assert first.stdout == second.stdout


def test_parallel_run_matches_serial_and_committed(tmp_path):
    serial = run_bench(list(FAST), tmp_path / "serial")
    parallel = run_bench(["--parallel", "2", *FAST], tmp_path / "parallel")
    assert parallel.stdout == serial.stdout
    for filename in map(result_file, FAST):
        serial_bytes = (tmp_path / "serial" / filename).read_bytes()
        parallel_bytes = (tmp_path / "parallel" / filename).read_bytes()
        committed = (REPO / "results" / filename).read_bytes()
        assert serial_bytes == committed
        assert parallel_bytes == committed


# ----------------------------------------------------------------------
# Shard router: threaded dispatch must be byte-identical to serial.
# Each pool thunk owns exactly one shard's entire simulated substrate
# and results are gathered in submission order, so worker scheduling
# cannot influence any simulated account.
# ----------------------------------------------------------------------


def _drive_router(workers: int, shards: int = 4):
    """A mixed batched workload; returns every observable output."""
    from repro.systems import build_system
    from repro.workloads import random_insert_keys

    router = build_system(
        "Sharded",
        memory_limit_bytes=192 * 1024,
        base_system="ART-LSM",
        shards=shards,
        workers=workers,
    )
    keys = random_insert_keys(2500, key_space=1 << 40, seed=21)
    router.put_many(keys, b"v" * 24)
    values = router.get_many(keys[::2] + [5, 6, 7])
    scan = router.scan(min(keys), 48)
    flags = router.delete_many(keys[::5])
    router.put_many(keys[::5], b"w" * 24)  # re-insert over tombstones
    values2 = router.get_many(keys[:200])
    snaps = [
        (s.cpu_ns, s.background_ns, s.disk_busy_ns, s.ops, s.disk_read_bytes, s.disk_write_bytes)
        for s in router.shard_snapshots()
    ]
    stats = [shard.stats.as_dict() for shard in router.shards]
    router.close()
    return values, scan, flags, values2, snaps, stats


def test_router_threaded_dispatch_is_byte_identical_to_serial():
    serial = _drive_router(workers=0)
    threaded = _drive_router(workers=4)
    assert serial == threaded


def test_router_stats_independent_of_worker_count():
    # Per-shard simulated accounts must not depend on how many workers
    # the dispatch pool happens to have (2 vs 4 vs serial).
    runs = [_drive_router(workers=w) for w in (1, 2, 4)]
    assert runs[0] == runs[1] == runs[2]


def test_parallel_rejects_bad_worker_count(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["REPRO_RESULTS_DIR"] = str(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--parallel", "zero", "table1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 2
    assert "--parallel" in proc.stderr

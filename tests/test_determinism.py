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

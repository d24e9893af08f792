"""Deterministic CI gate on every hostbench workload.

Runs traced host benchmarks at a fixed seed — one row of ``ROWS`` each:
``serve_skew`` (the only workload through ``ShardRouter``),
``spill_read`` (the LSM point read), ``page_mixed`` (ART-B+: the
disk B+ tree, its buffer pool and the ART range scan), ``mem_point``
(the in-memory fast path) and ``spill_write`` (release, write-back,
flush and compaction) — and checks each run's last-line JSON against
its section of ``serve_gate_oracle.json`` (next to this file, outside
``hostbench/``):

* ``correct`` is true and ``failed == 0``;
* every value under ``equal`` — the simulated-clock results and the
  counts (migrations and re-splits, cache and pool hit and eviction
  rates, pages and tables per lookup, loads, release cycles, flushes,
  compactions), all properties of the code and the seed alone — matches
  exactly;
* every value under ``at_most`` — Python calls per op in every layer the
  workload crosses (``diskbtree`` only on ``page_mixed``, ``lsm`` not
  on it nor on ``mem_point``, ``shard`` only on ``serve_skew``), the
  deterministic stand-in for host time — is no higher.

Wall-clock metrics are never compared.  ``correct`` also covers the
benchmark's own "was the process descheduled" check, the one input a
busy runner can disturb, so a run that fails on ``correct`` alone is
repeated once before the gate gives up.

Usage: ``python3 .github/serve_gate.py``.  A change that is *meant* to
move one of these numbers edits the oracle by hand from the values the
failing gate prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ORACLE = Path(__file__).with_name("serve_gate_oracle.json")
#: (hostbench arguments, oracle section) per gated run.
ROWS = [
    (["--workload", "serve_skew", "--trace", "1", "--seconds", "2", "--seed", "1"], "serve_skew"),
    (["--workload", "spill_read", "--trace", "1", "--seconds", "2", "--seed", "1"], "spill_read"),
    (["--workload", "page_mixed", "--trace", "1", "--seconds", "2", "--seed", "1"], "page_mixed"),
    (["--workload", "mem_point", "--trace", "1", "--seconds", "2", "--seed", "1"], "mem_point"),
    (["--workload", "spill_write", "--trace", "1", "--seconds", "2", "--seed", "1"], "spill_write"),
]


def run_benchmark(arguments: list[str]) -> dict:
    command = [sys.executable, "hostbench/run.py", *arguments]
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        sys.exit(f"serve_gate: benchmark printed nothing (exit {done.returncode})")
    return json.loads(lines[-1])


def violations(report: dict, oracle: dict) -> list[str]:
    values = {name: metric["value"] for name, metric in report["metrics"].items()}
    found = [
        f"{name} = {values.get(name)!r}, oracle says exactly {want!r}"
        for name, want in oracle["equal"].items()
        if values.get(name) != want
    ]
    found += [
        f"{name} = {values.get(name)!r}, oracle allows at most {limit!r}"
        for name, limit in oracle["at_most"].items()
        if not values.get(name, float("inf")) <= limit
    ]
    if report["failed"] != 0:
        found.append(f"{report['failed']} of {report['attempted']} ops failed")
    return found


def check_row(arguments: list[str], oracle: dict) -> list[str]:
    report = run_benchmark(arguments)
    found = violations(report, oracle)
    if not found and not report["correct"]:
        print("serve_gate: counts match but the run was disturbed; repeating once")
        report = run_benchmark(arguments)
        found = violations(report, oracle)
    if not report["correct"]:
        found.append("benchmark reports correct = false (see its stderr above)")
    return found


def main() -> int:
    oracles = json.loads(ORACLE.read_text())
    failed = False
    for arguments, section in ROWS:
        oracle = oracles[section]
        found = check_row(arguments, oracle)
        for line in found:
            print(f"serve_gate: FAIL {section}: {line}", file=sys.stderr)
        if not found:
            print(
                f"serve_gate: {section} ok "
                f"({len(oracle['equal'])} exact, {len(oracle['at_most'])} bounded)"
            )
        failed = failed or bool(found)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())

"""Host-clock benchmark of the IndeXY stack: ``python3 hostbench/run.py``.

One invocation measures one workload (``--workload``) or all five.  Each
measurement runs in fresh child processes (``child.py``), one after the
other; this parent only starts them, takes medians, checks the results
and prints.  ``--trace 0`` (default) reports the end-to-end metrics,
``--trace 1`` the per-layer ones; ``--aa`` and ``--selfcheck`` are the
benchmark's checks on itself.  See README.md next to this file.

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (per workload when several were run).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from timing import floor_metrics, read_raw

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

#: fresh processes per end-to-end measurement.  Each sets up from scratch
#: and times the same ops, sized for a third of ``--seconds``.
REPEATS = 3
#: runs per set in ``--aa``.
AA_RUNS = 3
#: one workload's children together get this long; then the one still
#: running is killed and the run fails (the contract allows 180 s).
MEASURE_TIMEOUT_S = 170

#: what must hold for a run to count as correct, beyond ``failed == 0``:
#: (metric, comparison, value, only at full ``run_seconds`` scale).  The
#: zeros say a bypassed layer really did nothing; the minimums say that
#: background work cycled several times inside the timed phase.
INVARIANTS: dict[str, tuple[tuple[str, str, float, bool], ...]] = {
    "mem_point": (
        ("core.release_cycles", "==", 0, False),
        ("sim.disk_reads_per_op", "==", 0, False),
        ("lsm.flushes", "==", 0, False),
        ("shard.migrations", "==", 0, False),
    ),
    "spill_write": (
        ("core.release_cycles", ">=", 10, True),
        ("lsm.compactions", ">=", 10, True),
    ),
    "spill_read": (
        ("core.release_cycles", ">=", 10, True),
        ("lsm.compactions", ">=", 1, True),
    ),
    "page_mixed": (
        ("lsm.flushes", "==", 0, False),
        ("lsm.compactions", "==", 0, False),
        ("lsm.self_us_per_op", "==", 0, False),
        ("lsm.pycalls_per_op", "==", 0, False),
        ("diskbtree.pool_evictions_per_op", ">", 0, True),
    ),
    "serve_skew": (
        ("shard.migrations", ">=", 1, True),
        ("shard.budget_resplits", ">=", 1, True),
    ),
}
_COMPARE = {
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


def load_spec() -> dict[str, Any]:
    """BENCHMARK.json is the one list of workloads, metrics, units and bounds."""
    if not (ROOT / "src" / "repro").is_dir():
        sys.exit(f"hostbench: no program to measure: {ROOT / 'src' / 'repro'} is missing")
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def spawn(
    workload: str, seed: int, seconds: float, deadline: float, mode: str = "plain", *extra: str
) -> dict[str, Any]:
    """Run one child to completion and return the object it printed."""
    command = [
        sys.executable, str(HERE / "child.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--mode", mode, "--t0", repr(time.monotonic()), *extra,
    ]  # fmt: skip
    # A fixed hash seed keeps bytes-keyed dict layouts, and with them the
    # timings, the same from one process to the next.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            command, stdout=subprocess.PIPE, text=True, env=env, check=False,
            timeout=max(1.0, deadline - time.monotonic()),
        )  # fmt: skip
    except subprocess.TimeoutExpired:
        sys.exit(f"hostbench: {workload} child ({mode}) overran the {MEASURE_TIMEOUT_S} s budget")
    if done.returncode != 0:
        sys.exit(f"hostbench: {workload} child ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def broken_invariants(workload: str, metrics: dict[str, float], full_scale: bool) -> list[str]:
    problems = []
    for name, op, value, needs_full_scale in INVARIANTS[workload]:
        if needs_full_scale and not full_scale:
            continue
        if name in metrics and not _COMPARE[op](metrics[name], value):
            problems.append(f"{name} = {metrics[name]!r}, expected {op} {value!r}")
    return problems


def timed_repeats(
    workload: str, seed: int, share: float, variants: tuple[tuple[str, ...], ...] = ((),)
) -> list[tuple[dict[str, float], list[dict[str, Any]]]]:
    """REPEATS fresh untraced children per variant, variants interleaved.

    A variant is extra child arguments (only ``--selfcheck`` uses more
    than the one empty variant).  Per variant: (end-to-end metrics, the
    children's reports).  The timing metrics are the piecewise minimum
    over the repeats (see timing.py); ``setup_s`` and ``peak_rss_mb``
    are medians.
    """
    children: list[list[dict[str, Any]]] = [[] for __ in variants]
    raws: list[list[Any]] = [[] for __ in variants]
    raw_path = OUT / f"{workload}.raw"
    deadline = time.monotonic() + MEASURE_TIMEOUT_S * len(variants)
    for __ in range(REPEATS):
        for which, extra in enumerate(variants):
            child = spawn(
                workload, seed, share, deadline, "plain", "--raw-out", str(raw_path), *extra
            )
            raws[which].append(read_raw(raw_path, child["ops"], child["cpu_chunks"]))
            raw_path.unlink()
            children[which].append(child)
    results = []
    for which in range(len(variants)):
        values = floor_metrics(raws[which])
        for name in ("setup_s", "peak_rss_mb"):
            values[name] = statistics.median(child[name] for child in children[which])
        results.append((values, children[which]))
    return results


def measure(
    spec: dict[str, Any], workload: str, seed: int, seconds: float, trace: bool
) -> dict[str, Any]:
    """One contract run: the named metrics of one workload, checked."""
    share = seconds / REPEATS
    problems: list[str] = []
    if trace:
        deadline = time.monotonic() + MEASURE_TIMEOUT_S
        trace_path = OUT / f"{workload}.trace.json"
        plain = spawn(workload, seed, share, deadline)
        traced = spawn(workload, seed, share, deadline, "spans", "--trace-out", str(trace_path))
        counted = spawn(workload, seed, share, deadline, "calls")
        children = [plain, traced, counted]
        same_work = [plain, traced]
        values = {**traced["counts"], **traced["spans"], **counted["pycalls"]}
        values["driver.trace_overhead_x"] = traced["cpu_us_per_op"] / plain["cpu_us_per_op"]
        # Wall time of the traced pass is, by construction, the sum of
        # the layer self times; CPU time must agree or the process was
        # descheduled and the shares are off.
        self_sum = sum(v for k, v in values.items() if k.endswith(".self_us_per_op"))
        if abs(self_sum / traced["cpu_us_per_op"] - 1) > 0.05:
            problems.append(
                f"layer self times sum to {self_sum:.3f} us/op, "
                f"traced cpu_us_per_op is {traced['cpu_us_per_op']:.3f}"
            )
        wanted = spec["per_layer"]
    else:
        ((values, children),) = timed_repeats(workload, seed, share)
        same_work = children
        wanted = spec["end_to_end"]

    # Same seed, same ops: every count and every simulated statistic must
    # repeat exactly, traced or not.  This is the determinism oracle.
    for child in same_work[1:]:
        for name, value in same_work[0]["counts"].items():
            other = child["counts"][name]
            if other != value:
                problems.append(f"{name} differs between repeats: {value!r} vs {other!r}")
    full_scale = seconds >= spec["run_seconds"]
    problems += broken_invariants(workload, {**same_work[0]["counts"], **values}, full_scale)
    failed = sum(child["failed_ops"] for child in children)
    for problem in problems:
        print(f"hostbench: {workload}: {problem}", file=sys.stderr)

    result = {
        "correct": failed == 0 and not problems,
        "attempted": sum(child["ops"] for child in children),
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    details = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "ops": children[0]["ops"],
        "samples": children[0]["ops"],
        "failed_ops": failed,
        "problems": problems,
        **result,
        "children": children,
    }
    out_path = OUT / (f"{workload}.layers.json" if trace else f"{workload}.json")
    with out_path.open("w") as handle:
        json.dump(details, handle, indent=1)

    print(f"{workload}: ops {details['ops']}  samples {details['samples']}  failed_ops {failed}")
    for name, metric in result["metrics"].items():
        print(f"{workload:12s} {name:32s} {metric['value']:16.4f} {metric['unit']}")
    return result


def run_suite(
    spec: dict[str, Any], workloads: list[str], seed: int, seconds: float, trace: bool
) -> dict[str, Any]:
    results = {name: measure(spec, name, seed, seconds, trace) for name in workloads}
    if len(results) == 1:
        return next(iter(results.values()))
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {name: r["metrics"] for name, r in results.items()},
    }


def must_repeat_exactly(name: str) -> bool:
    """Failed ops, call counts and the simulated oracle (not sim's host time)."""
    if name == "failed_ops" or name.endswith(".pycalls_per_op"):
        return True
    return name.startswith("sim.") and not name.endswith(".self_us_per_op")


def run_aa(spec: dict[str, Any], workloads: list[str], seed: int, seconds: float) -> bool:
    """Two sets of runs of the same tree must agree within the bounds."""
    sets: list[dict[tuple[str, str], Any]] = []
    passed = True
    for __ in range(2):
        found: dict[tuple[str, str], Any] = {}
        for workload in workloads:
            runs = [measure(spec, workload, seed + i, seconds, False) for i in range(AA_RUNS)]
            for metric in spec["end_to_end"]:
                name = metric["name"]
                found[workload, name] = statistics.median(r["metrics"][name]["value"] for r in runs)
            found[workload, "failed_ops"] = sum(r["failed"] for r in runs)
            layers = measure(spec, workload, seed, seconds, True)
            passed &= layers["correct"] and all(r["correct"] for r in runs)
            for name, metric in layers["metrics"].items():
                found[workload, name] = metric["value"]
        sets.append(found)
    first, second = sets
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    print(f"{'workload':12s} {'metric':28s} {'set A':>14s} {'set B':>14s} {'gap':>8s} bound")
    for (workload, name), a in first.items():
        b = second[workload, name]
        if name in bounds:
            gap = abs(b - a) / a
            ok = gap <= bounds[name]
            print(f"{workload:12s} {name:28s} {a:14.4f} {b:14.4f} {gap:8.2%} {bounds[name]:6.0%}"
                  f"{'' if ok else '  FAIL'}")  # fmt: skip
        elif must_repeat_exactly(name):
            ok = a == b
            if not ok:
                print(f"{workload:12s} {name:28s} {a!r} != {b!r}  FAIL (must repeat exactly)")
        else:
            continue
        passed &= ok
    print(f"A/A {'passed' if passed else 'FAILED'}")
    return passed


def run_selfcheck(spec: dict[str, Any], seed: int) -> bool:
    from selfcheck import check

    share = 0.1 * spec["run_seconds"]

    def cpu_pair(workload: str, delay_a: str | None, delay_b: str) -> tuple[float, float, float]:
        variants = tuple(("--delay", delay) if delay else () for delay in (delay_a, delay_b))
        (a, __), (b, b_children) = timed_repeats(workload, seed, share, variants)
        if any(child["failed_ops"] for child in b_children):
            sys.exit(f"hostbench: selfcheck: {workload} had failed ops")
        return a["cpu_us_per_op"], b["cpu_us_per_op"], b_children[0]["delay_calls_per_op"]

    passed = check(cpu_pair)
    print(f"selfcheck {'passed' if passed else 'FAILED'}")
    return passed


def main() -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=1, help="seed of every generated input")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="length of the timed phase the op counts are sized for",
    )  # fmt: skip
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: traced passes, per-layer metrics")  # fmt: skip
    parser.add_argument("--traced", dest="trace", action="store_const", const=1,
                        help="same as --trace 1")  # fmt: skip
    parser.add_argument("--aa", action="store_true", help="run everything twice and compare")
    parser.add_argument("--selfcheck", action="store_true",
                        help="slow each layer down and check the metrics respond")  # fmt: skip
    args = parser.parse_args()
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workloads = [args.workload] if args.workload else names
    OUT.mkdir(exist_ok=True)

    if args.selfcheck:
        return 0 if run_selfcheck(spec, args.seed) else 1
    if args.aa:
        return 0 if run_aa(spec, workloads, args.seed, args.seconds) else 1
    print(json.dumps(run_suite(spec, workloads, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line runner for the reproduction experiments.

Usage::

    python -m repro.bench list
    python -m repro.bench fig3_random
    python -m repro.bench fig8 table2 ablation_precleaning
    python -m repro.bench all
    python -m repro.bench --parallel 4 all
    python -m repro.bench --sanitize fig3_random
    python -m repro.bench --sanitize --smoke cache_sweep

Each experiment prints its reproduced table, and this runner writes its
structured JSON to ``results/<stem>.json``; experiments themselves write
nothing.  ``--smoke`` runs the shrunken CI variant of the experiments
that have one (``cache_sweep``: a 2×2 policy × workload grid) and writes
no file.  ``--sanitize`` first runs the RL305 charge-audit preflight
(:func:`repro.check.chargeaudit.charge_audit_preflight` — the runtime
cross-check of the static RL3xx charge summaries), then enables the
runtime invariant sanitizers (``repro.check``) on every system the
experiments build; the
checks charge no simulated time, but wall-clock time grows sharply and
buffer-pool state shifts (see EXPERIMENTS.md), so it is a debugging
mode, not a benchmarking mode.

``--parallel N`` fans the selected experiments out over ``N`` worker
processes.  Every experiment is a pure function of its fixed seeds and
has its own ``results/*.json`` file, so running them in separate
processes changes nothing about the output: the JSON files and the
printed tables are byte-identical to a serial run (tables are printed
in request order as workers finish).  Each experiment's host CPU seconds,
measured in the process that ran it, go to stderr, never into a results
file.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Callable, NamedTuple

from repro.bench import ablations as ab
from repro.bench import cache_sweep as cs
from repro.bench import experiments as ex
from repro.bench import multi_y_bench as my
from repro.bench import report
from repro.bench import tpcc_experiments as tp
from repro.bench.report import Criterion


class Experiment(NamedTuple):
    """One registry entry; its CLI name is the key in :data:`EXPERIMENTS`."""

    stem: str  # results/<stem>.json
    run: Callable[[], dict]
    criteria: tuple[Criterion, ...]
    smoke: Callable[[], dict] | None = None


EXPERIMENTS: dict[str, Experiment] = {
    "table1": Experiment("table1_systems", ex.table1_systems, ex.TABLE1_CRITERIA),
    "fig3_random": Experiment(
        "fig3_random", lambda: ex.fig3_inserts("random"), ex.FIG3_RANDOM_CRITERIA),
    "fig3_sequential": Experiment(
        "fig3_sequential", lambda: ex.fig3_inserts("sequential"), ex.FIG3_SEQUENTIAL_CRITERIA),
    "table2": Experiment("table2_pagesize", ex.table2_pagesize, ex.TABLE2_CRITERIA),
    "fig4": Experiment("fig4_valuesize", ex.fig4_valuesize, ex.FIG4_CRITERIA),
    "fig5": Experiment("fig5_workingset", ex.fig5_workingset, ex.FIG5_CRITERIA),
    "fig6": Experiment("fig6_zipf", ex.fig6_zipf, ex.FIG6_CRITERIA),
    "fig7": Experiment("fig7_shifting", ex.fig7_shifting, ex.FIG7_CRITERIA),
    "fig8": Experiment("fig8_ycsb", ex.fig8_ycsb, ex.FIG8_CRITERIA),
    "fig9": Experiment("fig9_tpcc_threads", tp.fig9_tpcc_threads, tp.FIG9_CRITERIA),
    "fig10": Experiment("fig10_tpcc_pagesize", tp.fig10_tpcc_pagesize, tp.FIG10_CRITERIA),
    "fig11": Experiment("fig11_scaling", tp.fig11_scaling, tp.FIG11_CRITERIA),
    "multi_y": Experiment("multi_y_mixed", my.multi_y_mixed_workload, my.MULTI_Y_CRITERIA),
    "ablation_release": Experiment(
        "ablation_release", ab.ablation_release_policy, ab.RELEASE_CRITERIA),
    "ablation_precleaning": Experiment(
        "ablation_precleaning", ab.ablation_precleaning, ab.PRECLEANING_CRITERIA),
    "ablation_checkback": Experiment(
        "ablation_checkback", ab.ablation_checkback, ab.CHECKBACK_CRITERIA),
    "ablation_watermarks": Experiment(
        "ablation_watermarks", ab.ablation_watermarks, ab.WATERMARKS_CRITERIA),
    "ablation_readcache": Experiment(
        "ablation_readcache", ab.ablation_readcache, ab.READCACHE_CRITERIA),
    "cache_sweep": Experiment(
        "cache_sweep", cs.cache_sweep, (), smoke=lambda: cs.cache_sweep(smoke=True)),
}


def write_result(name: str) -> str:
    """Run experiment *name*, write ``results/<stem>.json``, return its table.

    The payload is keyed first by the experiment's CLI name.  Serial and
    ``--parallel`` runs both map this function over the requested names;
    a worker resolves the name itself, since several entries are lambdas,
    which do not pickle.
    """
    entry = EXPERIMENTS[name]
    payload = {"experiment": name, **entry.run()}
    directory = os.path.abspath(report.RESULTS_DIR)
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, f"{entry.stem}.json"), "w") as f:
        json.dump(payload, f, indent=2, default=str)
    return payload["table"]


def _timed_write(name: str) -> tuple[str, float]:
    """:func:`write_result` and the CPU seconds (user + system) this process spent on it."""
    start = sum(os.times()[:2])
    table = write_result(name)
    return table, sum(os.times()[:2]) - start


def _report(name: str, table: str, seconds: float) -> None:
    print(table, end="\n\n")
    print(f"{name}: {seconds:.1f} s host CPU", file=sys.stderr)


def _worker_init(sanitize: bool) -> None:
    """Propagate the ``--sanitize`` flag into pool worker processes."""
    if sanitize:
        from repro.check.flags import set_sanitize

        set_sanitize(True)


def _run(names: list[str], jobs: int, sanitize: bool) -> None:
    if jobs <= 1 or len(names) <= 1:
        for name in names:
            _report(name, *_timed_write(name))
        return
    import multiprocessing

    ctx = multiprocessing.get_context()
    with ctx.Pool(min(jobs, len(names)), initializer=_worker_init, initargs=(sanitize,)) as pool:
        # imap preserves submission order, so the printed tables come out
        # exactly as a serial run would print them.
        for name, (table, seconds) in zip(names, pool.imap(_timed_write, names), strict=True):
            _report(name, table, seconds)


def main(argv: list[str]) -> int:
    sanitize = "--sanitize" in argv
    if sanitize:
        from repro.check.flags import set_sanitize

        argv = [a for a in argv if a != "--sanitize"]
        set_sanitize(True)
        # RL305 preflight: replay sampled verbs on the four core systems
        # under counting clock/disk wrappers and hold every observed
        # charge multiset to the static RL3xx summaries before spending
        # any time on experiments.
        from repro.check.chargeaudit import charge_audit_preflight

        audit_violations = charge_audit_preflight()
        if audit_violations:
            for violation in audit_violations:
                print(f"charge audit: {violation}", file=sys.stderr)
            print(
                f"charge audit: {len(audit_violations)} violation(s); the "
                "static charge summaries and the runtime disagree (RL305)",
                file=sys.stderr,
            )
            return 1
        print("charge audit: static summaries hold on all core systems (RL305)")
    smoke = "--smoke" in argv
    argv = [a for a in argv if a != "--smoke"]
    jobs = 0
    if "--parallel" in argv:
        at = argv.index("--parallel")
        if at + 1 >= len(argv) or not argv[at + 1].isdigit() or int(argv[at + 1]) < 1:
            print("--parallel requires a positive integer worker count", file=sys.stderr)
            return 2
        jobs = int(argv[at + 1])
        argv = argv[:at] + argv[at + 2 :]
    if not argv or argv[0] in ("-h", "--help", "list"):
        print(__doc__)
        print("Available experiments (and the results file each writes):")
        for name, entry in EXPERIMENTS.items():
            print(f"  {name:<22} {entry.stem}.json")
        return 0
    names = list(EXPERIMENTS) if argv == ["all"] else argv
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}", file=sys.stderr)
        print("run 'python -m repro.bench list' to see the options", file=sys.stderr)
        return 2
    if smoke:
        for name in names:
            run_smoke = EXPERIMENTS[name].smoke
            if run_smoke is None:
                print(f"--smoke: {name} has no smoke variant", file=sys.stderr)
                return 2
            print(run_smoke()["table"])
        return 0
    _run(names, jobs, sanitize)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))

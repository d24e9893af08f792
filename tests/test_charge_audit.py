"""Tests for the RL305 runtime charge auditor (``check/chargeaudit.py``).

The synthetic-summary tests pin ``check_observed``'s contract exactly
(lower bounds always hold; upper bounds only when the summary is
complete and unsaturated); the preflight test is the real acceptance
check — the static summaries and the live systems must agree on every
sampled verb of all four core systems.
"""

from __future__ import annotations

import pytest

from repro.check.chargeaudit import ChargeAuditor, charge_audit_preflight
from repro.check.chargecheck import ChargeAnalysis, ChargeSummary, summarize
from repro.check.engine import load
from repro.sim.effects import MANY
from repro.sim.runtime import EngineRuntime


def make_summary(effects, complete=True):
    return ChargeSummary("fixture.py::C.op", dict(effects), complete, None)


def make_auditor():
    # check_observed never touches the analysis; a hollow one suffices.
    return ChargeAuditor(ChargeAnalysis.__new__(ChargeAnalysis))


def test_audited_clock_and_disk_count_into_shared_log():
    # Attached after construction, to a runtime built the normal way.
    runtime = EngineRuntime()
    clock, disk = runtime.clock, runtime.disk
    auditor = make_auditor()
    auditor.attach(runtime)
    clock.charge_cpu(10.0)
    clock.charge_cpu(10.0)
    clock.charge_background(10.0)
    off = disk.allocate(16)  # a "stat" event: not a charge, not counted
    disk.write(off, b"x" * 16)
    disk.read(off)
    assert auditor.counts == {
        "disk_read": 1,
        "disk_write": 1,
        "cpu_charge": 2,
        "bg_charge": 1,
    }
    # The substrate still does the real work underneath.
    assert clock.cpu_ns > 0 and clock.background_ns > 0
    assert disk.read(off) == b"x" * 16


def test_disabled_log_suspends_counting():
    runtime = EngineRuntime()
    auditor = make_auditor()
    detach = auditor.attach(runtime)
    runtime.clock.charge_cpu(10.0)
    detach()
    runtime.clock.charge_cpu(10.0)
    assert auditor.counts["cpu_charge"] == 1
    assert runtime.clock.cpu_ns == 20.0  # simulated time still accrues


def test_check_observed_flags_lower_bound_miss():
    auditor = make_auditor()
    out = auditor.check_observed(
        make_summary({"cpu_charge": (1, 1)}), {"cpu_charge": 0}, "C.op"
    )
    assert len(out) == 1 and "lower bound is 1" in out[0]
    assert auditor.violations == out


def test_check_observed_flags_complete_upper_bound_excess():
    out = make_auditor().check_observed(
        make_summary({"cpu_charge": (1, 1)}), {"cpu_charge": 3}, "C.op"
    )
    assert len(out) == 1 and "upper bound is 1" in out[0]


def test_check_observed_incomplete_summary_skips_upper_bound():
    out = make_auditor().check_observed(
        make_summary({"cpu_charge": (1, 1)}, complete=False),
        {"cpu_charge": 3},
        "C.op",
    )
    assert out == []


def test_check_observed_saturated_hi_skips_upper_bound():
    out = make_auditor().check_observed(
        make_summary({"disk_read": (0, MANY)}), {"disk_read": 50}, "C.op"
    )
    assert out == []


def test_check_observed_within_bounds_is_clean():
    out = make_auditor().check_observed(
        make_summary({"cpu_charge": (1, 1), "disk_read": (0, 1)}),
        {"cpu_charge": 1, "disk_read": 1},
        "C.op",
    )
    assert out == []


def test_check_observed_missing_summary_is_a_violation():
    out = make_auditor().check_observed(None, {}, "C.op")
    assert len(out) == 1 and "no static summary" in out[0]


def test_scheduler_seam_suspends_the_recorder():
    auditor = make_auditor()
    runtime = EngineRuntime()
    auditor.attach(runtime)
    ticks = []
    task = runtime.scheduler.register(
        "probe", lambda: ticks.append(runtime.clock.charge_background(100.0))
    )
    with auditor.record() as observed:
        runtime.scheduler.submit(task)
        runtime.scheduler.drain()
        runtime.scheduler.run_inline(task)  # the backpressure fallback too
    assert len(ticks) == 2, "the registered runner must actually have run"
    assert observed["bg_charge"] == 0  # seam work is not the verb's charge
    with auditor.record() as observed:
        runtime.clock.charge_background(100.0)
    assert observed["bg_charge"] == 1  # counting resumes after the run


@pytest.fixture(scope="module")
def analysis():
    import repro
    from pathlib import Path

    return summarize(load([Path(repro.__file__).parent]))


def test_preflight_holds_on_all_core_systems(analysis):
    # RL305 acceptance: static summaries and runtime agree on the sampled
    # get/put/scan/delete paths of all four systems.  ops=40 keeps the
    # test fast while still crossing flush/compaction boundaries.
    assert charge_audit_preflight(analysis, ops=40) == []


def test_preflight_detects_a_poisoned_summary(analysis):
    # Sanity that the oracle can fail: corrupt one verb's summary to
    # demand an impossible lower bound and the preflight must object.
    graph = analysis.graph
    key = graph.resolve_method("ArtLsmSystem", "read")
    assert key is not None
    good = analysis.summaries[key]
    poisoned = dict(analysis.summaries)
    poisoned[key] = ChargeSummary(
        good.key,
        {**good.effects, "disk_write": (MANY, MANY)},
        good.complete,
        good.declared,
    )
    broken = ChargeAnalysis(graph, poisoned)
    violations = charge_audit_preflight(broken, ops=10)
    assert any("ArtLsmSystem.read" in v and "disk_write" in v for v in violations)

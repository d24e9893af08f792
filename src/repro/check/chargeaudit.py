"""RL305: runtime cross-validation of the static charge summaries.

The static analyzer (:mod:`~repro.check.chargecheck`) proves properties
of a *model* of the code — confident call edges, curated receiver types,
a saturating count lattice.  :class:`ChargeAuditor` closes the loop at
runtime: it subscribes to the runtime of a normally built system
(``EngineRuntime.subscribe``), drives real verbs, and asserts each
observed per-verb charge multiset against the static summary of that
verb:

* ``observed >= lo`` always — the analysis only counts charges it can
  prove, so its lower bounds must hold in every real execution;
* ``observed <= hi`` only when the summary is *complete* (no unresolved
  call could hide a charge) and ``hi`` has not saturated at ``MANY``.

Scheduler-run maintenance is excluded from the counts (a charge made
while any ``MaintenanceTask`` is ``running`` is not counted), matching
the static model, which treats the ``BackgroundScheduler`` execution
seam as opaque — both sides describe the same thing: the charges a verb
performs *inline*.

``charge_audit_preflight`` runs the whole protocol over the four core
systems' insert/read/scan/delete (plus update and the batch verbs'
single-op cousins) and is wired into ``python -m repro.bench
--sanitize`` as a preflight gate.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Callable, Iterator, Optional

from repro.check.chargecheck import ChargeAnalysis, ChargeSummary, summarize
from repro.check.engine import load
from repro.sim.effects import EFFECT_NAMES, MANY
from repro.sim.runtime import EngineRuntime

__all__ = ["ChargeAuditor", "charge_audit_preflight"]


class ChargeAuditor:
    """Counts the charges of driven verbs and checks them against summaries."""

    def __init__(self, analysis: ChargeAnalysis) -> None:
        self.analysis = analysis
        #: charge events seen outside scheduler-run work, per effect.
        self.counts: dict[str, int] = {name: 0 for name in EFFECT_NAMES}
        self.violations: list[str] = []

    def attach(self, runtime: EngineRuntime) -> Callable[[], None]:
        """Count ``runtime``'s charges from now on; returns the detach.

        Charges made by maintenance work (paced, inline fallback, or
        drained) are not attributed to the verb that happened to trigger
        them — the static summaries treat that seam as opaque too.
        """

        def note(effect: str, amount: float) -> None:
            if effect in self.counts and not any(t.running for t in runtime.scheduler.tasks):
                self.counts[effect] += 1

        return runtime.subscribe(note)

    @contextmanager
    def record(self) -> Iterator[dict[str, int]]:
        """Collect the charge multiset of the enclosed verb (in place)."""
        before = dict(self.counts)
        observed: dict[str, int] = {}
        yield observed
        observed.update({name: self.counts[name] - before[name] for name in EFFECT_NAMES})

    def check_observed(
        self,
        summary: Optional[ChargeSummary],
        observed: dict[str, int],
        label: str,
    ) -> list[str]:
        """Compare one verb's observed multiset against its summary.

        Returns human-readable violation strings (empty = agreement) and
        accumulates them on ``self.violations``.
        """
        out: list[str] = []
        if summary is None:
            out.append(f"{label}: no static summary for this verb")
        else:
            for name in EFFECT_NAMES:
                lo, hi = summary.interval(name)
                seen = observed.get(name, 0)
                if seen < lo:
                    out.append(
                        f"{label}: observed {seen} {name} charge(s) but the "
                        f"static lower bound is {lo}"
                    )
                if summary.complete and hi < MANY and seen > hi:
                    out.append(
                        f"{label}: observed {seen} {name} charge(s) but the "
                        f"complete static upper bound is {hi}"
                    )
        self.violations.extend(out)
        return out

    def audit_verb(self, system: Any, verb: str, *args: Any) -> list[str]:
        """Run one verb on ``system`` and check it against its summary."""
        summary = self.analysis.summary_for(type(system).__name__, verb)
        with self.record() as observed:
            getattr(system, verb)(*args)
        return self.check_observed(
            summary, observed, f"{type(system).__name__}.{verb}"
        )


def _audit_system(analysis: ChargeAnalysis, name: str, ops: int) -> list[str]:
    from repro.systems.factory import build_system

    auditor = ChargeAuditor(analysis)
    system = build_system(name, memory_limit_bytes=256 * 1024, debug_checks=False)
    auditor.attach(system.runtime)
    value = b"v" * 64
    for key in range(ops):
        auditor.audit_verb(system, "insert", key, value)
    for key in range(0, ops, 3):
        auditor.audit_verb(system, "read", key)
    auditor.audit_verb(system, "read", ops + 7)  # miss path
    auditor.audit_verb(system, "update", 1, b"u" * 48)
    for start in (0, ops // 2):
        auditor.audit_verb(system, "scan", start, 10)
    for key in range(0, ops, 5):
        auditor.audit_verb(system, "delete", key)
    auditor.audit_verb(system, "read", 0)  # read of a deleted key
    return auditor.violations


def charge_audit_preflight(
    analysis: Optional[ChargeAnalysis] = None, ops: int = 120
) -> list[str]:
    """RL305 over the four core systems; returns violations (empty = pass).

    Builds each system with ``debug_checks=False``: the invariant
    sanitizers probe structures under ``observation()`` rollbacks, whose
    charges are reverted in *value* but would still be counted as
    *events* — the auditor is itself the sanitizer here.
    """
    from repro.systems.factory import SYSTEM_NAMES

    if analysis is None:
        import repro
        from pathlib import Path

        analysis = summarize(load([Path(repro.__file__).parent]))
    violations: list[str] = []
    for name in SYSTEM_NAMES:
        violations.extend(_audit_system(analysis, name, ops))
    return violations

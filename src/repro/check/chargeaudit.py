"""RL305: runtime cross-validation of the static charge summaries.

The static analyzer (:mod:`~repro.check.chargecheck`) proves properties
of a *model* of the code — confident call edges, curated receiver types,
a saturating count lattice.  :class:`ChargeAuditor` closes the loop the
same way ``OwnershipSanitizer`` backs RL201–204: it wraps ``SimClock``
and ``SimDisk`` in counting subclasses, drives real verbs, and asserts
each observed per-verb charge multiset against the static summary of
that verb:

* ``observed >= lo`` always — the analysis only counts charges it can
  prove, so its lower bounds must hold in every real execution;
* ``observed <= hi`` only when the summary is *complete* (no unresolved
  call could hide a charge) and ``hi`` has not saturated at ``MANY``.

Scheduler-run maintenance is excluded from the counts (``_run_one`` is
wrapped to suspend the recorder), matching the static model, which
treats the ``BackgroundScheduler`` execution seam as opaque — both sides
describe the same thing: the charges a verb performs *inline*.

``charge_audit_preflight`` runs the whole protocol over the four core
systems' insert/read/scan/delete (plus update and the batch verbs'
single-op cousins) and is wired into ``python -m repro.bench
--sanitize`` as a preflight gate.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.check.chargecheck import ChargeAnalysis, ChargeSummary, summarize
from repro.check.engine import load
from repro.sim.clock import SimClock
from repro.sim.disk import DiskSpec, SimDisk
from repro.sim.effects import EFFECT_NAMES, MANY
from repro.sim.runtime import EngineRuntime

__all__ = [
    "AuditedClock",
    "AuditedDisk",
    "ChargeAuditor",
    "ChargeLog",
    "charge_audit_preflight",
]


class ChargeLog:
    """Counts charge events; shared by the audited clock and disk.

    ``enabled`` is the scheduler-seam switch: while False (inside
    ``_run_one``) events pass through uncounted, so the multiset only
    reflects the verb's inline work — the part the static summaries
    describe.
    """

    __slots__ = ("counts", "enabled")

    def __init__(self) -> None:
        self.counts: dict[str, int] = {name: 0 for name in EFFECT_NAMES}
        self.enabled = True

    def note(self, effect: str) -> None:
        if self.enabled:
            self.counts[effect] += 1

    def snapshot(self) -> dict[str, int]:
        return dict(self.counts)

    @staticmethod
    def delta(before: dict[str, int], after: dict[str, int]) -> dict[str, int]:
        return {name: after[name] - before[name] for name in EFFECT_NAMES}


class AuditedClock(SimClock):
    """``SimClock`` that reports each charge to a :class:`ChargeLog`.

    A subclass rather than a monkeypatch: ``SimClock`` uses ``__slots__``
    and components bind ``clock.charge_cpu`` (and ART its ``_charge_fn``)
    at construction time, so the counting hooks must be in place before
    any system is built — hence the auditor constructs the runtime.
    """

    __slots__ = ("log",)

    def __init__(self, log: ChargeLog) -> None:
        super().__init__()
        self.log = log

    def charge_cpu(self, ns: float) -> None:
        self.log.note("cpu_charge")
        super().charge_cpu(ns)

    def charge_background(self, ns: float) -> None:
        self.log.note("bg_charge")
        super().charge_background(ns)


class AuditedDisk(SimDisk):
    """``SimDisk`` that reports each read/write to a :class:`ChargeLog`."""

    def __init__(self, log: ChargeLog, spec: Optional[DiskSpec] = None) -> None:
        super().__init__(spec)
        self.log = log

    def read(self, offset: int) -> bytes:
        self.log.note("disk_read")
        return super().read(offset)

    def write(self, offset: int, data: bytes) -> float:
        self.log.note("disk_write")
        return super().write(offset, data)


class ChargeAuditor:
    """Drives verbs under counting instrumentation and checks summaries."""

    def __init__(self, analysis: ChargeAnalysis) -> None:
        self.analysis = analysis
        self.log = ChargeLog()
        self.violations: list[str] = []

    def build_runtime(self, **kwargs: Any) -> EngineRuntime:
        """An ``EngineRuntime`` whose clock/disk report to this auditor.

        The scheduler's ``_run_one`` is wrapped so charges made by
        maintenance work (paced, inline fallback, or drained) are not
        attributed to the verb that happened to trigger them — the
        static summaries treat that seam as opaque too.
        """
        runtime = EngineRuntime(
            clock=AuditedClock(self.log), disk=AuditedDisk(self.log), **kwargs
        )
        inner = runtime.scheduler._run_one
        log = self.log

        def run_one(*args: Any, **kw: Any) -> Any:
            was = log.enabled
            log.enabled = False
            try:
                return inner(*args, **kw)
            finally:
                log.enabled = was

        runtime.scheduler._run_one = run_one  # type: ignore[method-assign]
        return runtime

    @contextmanager
    def record(self) -> Iterator[dict[str, int]]:
        """Collect the charge multiset of the enclosed verb (in place)."""
        before = self.log.snapshot()
        observed: dict[str, int] = {}
        yield observed
        observed.update(ChargeLog.delta(before, self.log.snapshot()))

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
    runtime = auditor.build_runtime()
    system = build_system(
        name,
        memory_limit_bytes=256 * 1024,
        page_size=4096,
        runtime=runtime,
        debug_checks=False,
    )
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

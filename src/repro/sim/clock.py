"""Simulated CPU clock.

All CPU work done by indexes and the framework is charged here in
nanoseconds of *simulated* time.  The clock is a plain accumulator: it never
reads the wall clock, so runs are fully deterministic and independent of the
Python interpreter's speed.
"""

from __future__ import annotations

from typing import Optional

from repro.sim.effects import Probe


class SimClock:
    """Accumulates simulated CPU nanoseconds.

    A single clock instance is shared by every component of one simulated
    system (Index X, Index Y, framework threads).  Background work that the
    paper runs on dedicated threads (pre-cleaning, compaction) is charged to
    a separate ``background_ns`` account so the thread model can overlap it
    with foreground work the way real background threads would.
    """

    __slots__ = ("cpu_ns", "background_ns", "_probe")

    def __init__(self) -> None:
        self.cpu_ns = 0.0
        self.background_ns = 0.0
        #: the substrate probe (``EngineRuntime.subscribe``): called with
        #: ``(effect, ns)`` before every charge; None with no subscriber,
        #: costing one predictable branch per charge.
        self._probe: Optional[Probe] = None

    def charge_cpu(self, ns: float) -> None:
        """Charge ``ns`` nanoseconds of foreground CPU work."""
        if self._probe is not None:
            self._probe("cpu_charge", ns)
        self.cpu_ns += ns

    def charge_background(self, ns: float) -> None:
        """Charge ``ns`` nanoseconds of background-thread CPU work."""
        if self._probe is not None:
            self._probe("bg_charge", ns)
        self.background_ns += ns

    def snapshot(self) -> tuple[float, float]:
        """Return ``(cpu_ns, background_ns)`` for delta-based sampling."""
        return (self.cpu_ns, self.background_ns)

    def reset(self) -> None:
        self.cpu_ns = 0.0
        self.background_ns = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(cpu_ns={self.cpu_ns:.0f}, background_ns={self.background_ns:.0f})"

"""Named counters with snapshot/delta support.

Used for I/O accounting, framework event counts (pre-cleanings, releases,
misses), and anything a benchmark wants to report per time slice.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import Optional

from repro.sim.effects import Probe


class _CountMap(dict[str, float]):
    """A ``dict`` whose missing keys read as zero (without inserting).

    The zero is an ``int`` on purpose: counters bumped by integer amounts
    must stay integers so snapshots serialize as ``1``, not ``1.0``.
    """

    __slots__ = ()

    def __missing__(self, key: str) -> float:
        return 0


class StatCounters:
    """A bag of named numeric counters.

    Unknown names read as zero, so callers never have to pre-register the
    counters they bump.  ``snapshot``/``delta`` support the chunked sampling
    the figure benchmarks use (throughput per slice of a long run).

    Backed by a zero-defaulting dict subclass so the (very hot) ``bump``
    is a single ``+=`` rather than a get/put pair.
    """

    __slots__ = ("_counts", "_probe")

    def __init__(self) -> None:
        self._counts: _CountMap = _CountMap()
        #: the substrate probe (``EngineRuntime.subscribe``): called with
        #: ``("stat", amount)`` before every bump; None with no
        #: subscriber, costing one predictable branch per bump.
        self._probe: Optional[Probe] = None

    def bump(self, name: str, amount: float = 1) -> None:
        if self._probe is not None:
            self._probe("stat", amount)
        self._counts[name] += amount

    def record_max(self, name: str, value: float) -> None:
        """Keep the running maximum of a gauge (queue depths, peaks)."""
        if self._probe is not None:
            self._probe("stat", value)
        if value > self._counts[name]:
            self._counts[name] = value

    def get(self, name: str) -> float:
        return self._counts[name]

    def __getitem__(self, name: str) -> float:
        return self._counts[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._counts)

    def snapshot(self) -> dict[str, float]:
        return dict(self._counts)

    def delta(self, earlier: dict[str, float]) -> dict[str, float]:
        """Counters accumulated since ``earlier`` (a prior ``snapshot()``)."""
        out: dict[str, float] = {}
        for name, value in self._counts.items():
            diff = value - earlier.get(name, 0)
            if diff:
                out[name] = diff
        return out

    def merge(self, other: "StatCounters") -> None:
        counts = self._counts
        for name, value in other._counts.items():
            counts[name] += value

    def reset(self) -> None:
        self._counts.clear()

    def restore(self, snapshot: dict[str, float]) -> None:
        """Reset the counters to a prior ``snapshot()`` (observer rollback)."""
        self._counts = _CountMap(snapshot)

    def as_dict(self) -> dict[str, float]:
        return dict(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in sorted(self._counts.items()))
        return f"StatCounters({inner})"

"""Charge-effect contracts: the ``@charges(...)`` declaration decorator.

Every physical action in the simulation charges the cost model —
``SimDisk.read``/``SimDisk.write`` accrue disk busy time,
``SimClock.charge_cpu``/``SimClock.charge_background`` accrue CPU time in
the foreground or background account.  A function's *charge effects* are
which of those four primitives its paths may reach, and how many times:

=============  =====================================================
``disk_read``  a ``SimDisk.read`` charge (one page/block fault)
``disk_write`` a ``SimDisk.write`` charge (one page/block write-back)
``cpu_charge`` a foreground ``SimClock.charge_cpu``
``bg_charge``  a background ``SimClock.charge_background``
=============  =====================================================

``@charges(...)`` declares the contract; the static analyzer
(``repro.check --deep``, rules RL301/RL302) verifies every declared
function against its control-flow graph, and the runtime
:class:`~repro.check.chargeaudit.ChargeAuditor` cross-validates sampled
executions under ``bench --sanitize`` (RL305).  Each argument is an
effect name with an optional multiplicity suffix:

* ``"disk_read"`` — exactly one on every path (a recognized cache-hit
  guard may skip it; see DESIGN.md §12),
* ``"disk_read?"`` — at most one,
* ``"disk_write+"`` — at least one,
* ``"cpu_charge*"`` — any number (including zero).

``@charges()`` with no arguments declares the function charge-free.
Undeclared effects must not occur; declared effects must be reachable.

The decorator is a runtime no-op (it returns the function unchanged
after stamping ``__charge_effects__``): the analyzer reads the
declaration *syntactically* from the AST, so decorated modules never
import the check package and decorated calls pay zero overhead.
"""

from __future__ import annotations

from typing import Callable, TypeVar

__all__ = ["EFFECT_NAMES", "MANY", "Probe", "charges", "parse_effect"]

F = TypeVar("F", bound=Callable[..., object])

#: the four charge effects, in canonical order.
EFFECT_NAMES = ("disk_read", "disk_write", "cpu_charge", "bg_charge")

#: a substrate observer, ``probe(effect, amount)``; see
#: :meth:`repro.sim.runtime.EngineRuntime.subscribe`.
Probe = Callable[[str, float], None]

#: saturation point of the count lattice: ``MANY`` means "2 or more"
#: (an unbounded upper multiplicity).
MANY = 2

#: multiplicity suffix -> (lo, hi) count interval.
_SUFFIX_INTERVALS = {
    "": (1, 1),  # exactly one on every path
    "?": (0, 1),  # at most one
    "+": (1, MANY),  # at least one
    "*": (0, MANY),  # any number
}


def parse_effect(spec: str) -> tuple[str, tuple[int, int]]:
    """Split ``"disk_read?"`` into ``("disk_read", (0, 1))``.

    Raises ``ValueError`` on an unknown effect name or suffix, so a typo
    in a declaration fails at import time rather than silently verifying
    nothing.
    """
    suffix = ""
    name = spec
    if spec and spec[-1] in "?+*":
        name, suffix = spec[:-1], spec[-1]
    if name not in EFFECT_NAMES:
        raise ValueError(
            f"unknown charge effect {name!r}; choose from {EFFECT_NAMES}"
        )
    return name, _SUFFIX_INTERVALS[suffix]


def charges(*effects: str) -> Callable[[F], F]:
    """Declare the charge-effect contract of a function or method.

    See the module docstring for the grammar.  The parsed contract is
    stamped on the function as ``__charge_effects__`` (a dict of effect
    name to ``(lo, hi)`` count interval) purely as introspection metadata;
    enforcement is static (RL301/RL302) and sampled-runtime (RL305).
    """
    parsed: dict[str, tuple[int, int]] = {}
    for spec in effects:
        name, interval = parse_effect(spec)
        if name in parsed:
            raise ValueError(f"duplicate charge effect {name!r} in declaration")
        parsed[name] = interval

    def decorate(func: F) -> F:
        func.__charge_effects__ = parsed  # type: ignore[attr-defined]
        return func

    return decorate

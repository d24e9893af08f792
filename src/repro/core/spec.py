"""The one spec grammar: ``name<assign>value`` lists.

Every textual configuration in the tree is the same shape at a different
nesting level — ``Sharded@block=s3fifo,rebalance=threshold:1.3+cooldown:3``
is a ``,``/``=`` list whose ``rebalance`` value is itself a ``+``/``:``
list — so there is one splitter (:func:`parse_pairs`) and one typed
layer over it (:func:`config_from_spec` / :func:`coerce_config`) that
feeds the config dataclasses.  Every malformed part, duplicate name,
unknown name and unparsable value raises a ``ValueError`` that quotes
the offending part and the spec it came from.
"""

from __future__ import annotations

from typing import Callable, Mapping, TypeVar

__all__ = ["Knobs", "coerce_config", "config_from_spec", "parse_pairs"]

_C = TypeVar("_C")

#: spec name -> (config field, value parser) for one config dataclass.
Knobs = Mapping[str, tuple[str, Callable[[str], float]]]


def parse_pairs(spec: str, sep: str, assign: str) -> dict[str, str]:
    """Split ``name<assign>value`` parts joined by ``sep`` into a dict.

    Blank parts are skipped (a trailing separator is harmless); a part
    without ``assign``, with an empty side, or naming a name twice is an
    error.
    """
    pairs: dict[str, str] = {}
    for part in spec.split(sep):
        part = part.strip()
        if not part:
            continue
        name, found, value = part.partition(assign)
        name, value = name.strip(), value.strip()
        if not found or not name or not value:
            raise ValueError(
                f"bad spec part {part!r} in {spec!r}; expected name{assign}value"
            )
        if name in pairs:
            raise ValueError(f"{name!r} named twice in spec {spec!r}")
        pairs[name] = value
    return pairs


def config_from_spec(factory: Callable[..., _C], knobs: Knobs, spec: str) -> _C:
    """Build a config from ``name:value`` pairs joined by ``+``.

    ``"on"`` (or an empty spec) selects the defaults; any other spec
    names ``knobs`` entries, e.g. ``threshold:1.3+interval:128``.
    """
    if spec.strip() in ("", "on", "default"):
        return factory()
    chosen: dict[str, float] = {}
    for name, raw in parse_pairs(spec, "+", ":").items():
        if name not in knobs:
            raise ValueError(
                f"unknown name in spec part '{name}:{raw}' of {spec!r}; expected one "
                f"of {', '.join(knobs)} (or the bare spec 'on')"
            )
        field, parse = knobs[name]
        try:
            chosen[field] = parse(raw)
        except ValueError:
            raise ValueError(
                f"bad value in spec part '{name}:{raw}' of {spec!r}; "
                f"{name} must parse as {getattr(parse, '__name__', 'a number')}"
            ) from None
    return factory(**chosen)


def coerce_config(
    factory: Callable[..., _C], knobs: Knobs, value: _C | str | bool | None
) -> _C | None:
    """Normalise a config argument: instance, spec string, or on/off flag."""
    if value is None or value is False or value == "off":
        return None
    if value is True:
        return factory()
    if isinstance(value, str):
        return config_from_spec(factory, knobs, value)
    return value

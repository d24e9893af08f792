"""System factory: build any registered system by name.

The registry covers the four Table-I systems, the Section III-G
``ART-Multi`` extension, and the ``Sharded`` serving layer
(:class:`~repro.shard.router.ShardRouter` — pass ``base_system=`` and
``shards=`` through ``kwargs`` to configure it).  Unknown names fail
with the full list of registered systems, so a typo in an experiment
spec reads as a one-line fix instead of a bare ``KeyError``.
"""

from __future__ import annotations

from typing import Any, Callable, NamedTuple

from repro.core.config import CachePolicyConfig
from repro.core.spec import parse_pairs
from repro.shard.config import BudgetConfig, RebalanceConfig
from repro.systems.art_bplus import ArtBPlusSystem
from repro.systems.art_lsm import ArtLsmSystem
from repro.systems.art_multi import ArtMultiYSystem
from repro.systems.base import KVSystem, limit_error
from repro.systems.bplus_bplus import BPlusBPlusSystem
from repro.systems.rocksdb_like import RocksDbLikeSystem

#: the four Table-I systems the paper's experiments iterate over;
#: :func:`build_system` additionally accepts everything in the registry.
SYSTEM_NAMES = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB")


def _shard_router(**kwargs: Any) -> KVSystem:
    # Deferred import: the router builds its shards through this factory,
    # so a module-level import either way would be circular.
    from repro.shard.router import ShardRouter

    return ShardRouter(**kwargs)


class _System(NamedTuple):
    """One registry row: how to build a system and what its spec may name."""

    build: Callable[..., KVSystem]
    #: whether ``page_size`` is forwarded (the page-based structures only).
    paged: bool
    #: the cache layers the system actually builds: a spec naming any
    #: other layer is a no-op knob, so :func:`parse_system_spec` rejects
    #: it with this list instead of silently ignoring it.
    layers: tuple[str, ...]


_REGISTRY: dict[str, _System] = {
    "ART-LSM": _System(ArtLsmSystem, False, ("block", "row")),
    "ART-B+": _System(ArtBPlusSystem, True, ("pool",)),
    "B+-B+": _System(BPlusBPlusSystem, True, ("pool",)),
    "RocksDB": _System(RocksDbLikeSystem, False, ("block", "row")),
    "ART-Multi": _System(ArtMultiYSystem, True, ("pool", "block", "row")),
    # Forwards its policies to whatever base system the shards run, so
    # it accepts every layer.
    "Sharded": _System(_shard_router, True, ("pool", "block", "row")),
}

#: ``Sharded``-only spec parts, routed to the router's same-named keyword
#: arguments as the config each ``name:value+...`` value parses into.
_ROUTER_KNOBS: dict[str, Callable[[str], object]] = {
    "rebalance": RebalanceConfig.coerce,
    "budget": BudgetConfig.coerce,
}


def registered_systems() -> tuple[str, ...]:
    """Every name :func:`build_system` accepts, in registration order."""
    return tuple(_REGISTRY)


def _lookup(name: str) -> _System:
    entry = _REGISTRY.get(name)
    if entry is None:
        known = ", ".join(registered_systems())
        raise ValueError(f"unknown system {name!r}; registered systems: {known}")
    return entry


def parse_system_spec(spec: str) -> tuple[str, dict[str, Any]]:
    """Split ``name@key=value,...`` into (name, build keyword arguments).

    A bare name returns ``(name, {})`` unchecked (callers that build
    report unknown systems themselves).  Otherwise the system name is
    validated first — the grammar after ``@`` is per-system — and each
    ``key=value`` part is either a cache layer (``block=s3fifo``),
    collected into ``cache_policies`` through
    :meth:`CachePolicyConfig.from_pairs` restricted to the layers that
    system caches on, or a router knob
    (``Sharded@rebalance=threshold:1.3+interval:128,budget=on``), parsed
    into its config dataclass and passed under its own name.  Only
    ``Sharded`` accepts those — they name router mechanisms no
    single-engine system has.
    """
    name, sep, params = spec.partition("@")
    if not sep:
        return name, {}
    entry = _lookup(name)
    pairs = parse_pairs(params, ",", "=")
    kwargs: dict[str, Any] = {
        knob: parse(pairs.pop(knob))
        for knob, parse in _ROUTER_KNOBS.items()
        if knob in pairs
    }
    if kwargs and name != "Sharded":
        raise ValueError(
            f"system {name!r} has no router; spec knobs "
            f"{', '.join(kwargs)} only configure 'Sharded'"
        )
    if pairs:
        kwargs["cache_policies"] = CachePolicyConfig.from_pairs(
            pairs, layers=entry.layers, system=name
        )
    return name, kwargs


def build_system(
    name: str,
    memory_limit_bytes: int,
    page_size: int = 4096,
    **kwargs: Any,
) -> KVSystem:
    """Construct a configured system.

    ``memory_limit_bytes`` is the total memory budget of the run (the
    paper's 5 GB / 30 GB limits, scaled; the ``Sharded`` system divides
    it equally over its shards).  ``page_size`` applies to the
    page-based structures only (Table II / Figure 10 sweeps).

    ``name`` accepts cache-policy specs like ``ART-LSM@block=s3fifo`` or
    ``B+-B+@pool=mglru``; the part after ``@`` selects per-layer eviction
    policies (equivalent to passing ``cache_policies=``, which must not
    be given alongside a spec).  ``Sharded`` specs additionally accept a
    ``rebalance=`` part (e.g. ``Sharded@rebalance=on`` or
    ``Sharded@rebalance=threshold:1.3+interval:128``) that configures
    the router's elastic-resharding layer, and a ``budget=`` part (e.g.
    ``Sharded@budget=on`` or ``Sharded@budget=floor:0.1+interval:256``)
    that configures its heat-proportional budget layer — each equivalent
    to passing the keyword directly, which must not be given alongside
    the spec form.
    """
    if memory_limit_bytes < 1:
        raise limit_error(memory_limit_bytes)
    name, spec_kwargs = parse_system_spec(name)
    for key, value in spec_kwargs.items():
        if kwargs.get(key) is not None:
            raise ValueError(
                f"system spec {name!r} already selects {key}; "
                f"drop the explicit {key} argument"
            )
        kwargs[key] = value
    entry = _lookup(name)
    if entry.paged:
        kwargs["page_size"] = page_size
    return entry.build(memory_limit_bytes=memory_limit_bytes, **kwargs)

"""One engine, one substrate: nothing reachable charges a private ledger.

Every component of an engine must hold the very objects its
``EngineRuntime`` owns — the same clock, disk, cost model, stats bus and
scheduler — or a cost lands where no benchmark reads it (the split-brain
engines the optional ``disk=/clock=`` constructors used to allow).
"""

import pytest

from repro.art import AdaptiveRadixTree
from repro.core.indexy import IndeXY
from repro.core.multi_y import RoutedIndexY
from repro.lsm import LSMStore
from repro.systems.factory import build_system, registered_systems
from repro.tpcc.engine import ORDERLINE_BACKENDS, TpccConfig, TpccEngine

#: attribute name -> the runtime attribute it must be identical to.
SUBSTRATE = {
    "clock": "clock",
    "_clock": "clock",
    "disk": "disk",
    "_disk": "disk",
    "costs": "costs",
    "_costs": "costs",
    "_scheduler": "scheduler",
    "runtime": None,  # the runtime itself
}


def components(top):
    """(label, component, shares the stats bus) for everything under ``top``.

    ``top`` is an ``IndeXY`` or a bare Index Y.  The three component-local
    ledgers (``LSMStore.stats``, ``BufferPool.stats``, ``DiskBPlusTree.
    stats``) are deliberately private, so those rows do not check ``stats``.
    """
    out = []
    if isinstance(top, IndeXY):
        assert isinstance(top.x, AdaptiveRadixTree)  # the tree itself, no wrapper
        out += [("index", top, True), ("precleaner", top.precleaner, True), ("x", top.x, False)]
        top = top.y
    pending = [("y", top)]
    while pending:
        label, part = pending.pop()
        if isinstance(part, RoutedIndexY):
            out.append((label, part, True))
            pending += [(f"{label}[{name}]", b) for name, b in part.backends.items()]
        elif isinstance(part, LSMStore):
            out += [(label, part, False), (f"{label}.memtable", part._memtable, False)]
            out += [
                (f"{label}.sstable{table.table_id}", table, False)
                for level in part.levels
                for table in level
            ]
        else:
            tree = getattr(part, "tree", part)  # the IndexY adapter, or the tree itself
            out += [(label, tree, False), (f"{label}.pool", tree.pool, False)]
    return out


def assert_one_world(runtime, top):
    seen = set()
    for label, part, on_bus in components(top):
        for attr, owner in SUBSTRATE.items():
            if attr in vars(part):
                want = runtime if owner is None else getattr(runtime, owner)
                assert getattr(part, attr) is want, f"{label}.{attr} is not the engine's"
                seen.add(owner)
        if on_bus:
            assert part.stats is runtime.stats, f"{label}.stats is not the engine's bus"
    # The walk really reached charging components, not an empty shell.
    assert {"clock", "disk", "costs", "scheduler"} <= seen


@pytest.mark.parametrize("name", registered_systems())
def test_every_system_component_shares_the_runtime(name):
    system = build_system(name, memory_limit_bytes=128 * 1024)
    for key in range(3000):
        system.insert(key * 7919, b"v" * 16)
    system.flush()  # SSTables exist, so the walk covers them too
    for engine in getattr(system, "shards", [system]):
        runtime = engine.runtime
        for attr in ("clock", "disk", "costs", "stats"):
            assert getattr(engine, attr) is getattr(runtime, attr)
        assert_one_world(runtime, getattr(engine, "index", None) or engine.y)


@pytest.mark.parametrize("backend", ORDERLINE_BACKENDS)
def test_every_tpcc_backend_shares_the_runtime(backend):
    engine = TpccEngine(
        TpccConfig(
            warehouses=1,
            customers_per_district=10,
            items=100,
            memory_limit_bytes=256 * 1024,
            orderline_backend=backend,
        )
    )
    engine.run(300)
    assert_one_world(engine.runtime, engine.orderline)

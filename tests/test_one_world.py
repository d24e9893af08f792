"""One engine, one substrate: nothing reachable charges a private ledger.

Every component of an engine must hold the very objects its
``EngineRuntime`` owns — the same clock, disk, cost model, stats bus and
scheduler — or a cost lands where no benchmark reads it (the split-brain
engines the optional ``disk=/clock=`` constructors used to allow).
"""

import pytest

from repro.art import AdaptiveRadixTree
from repro.check.sanitizer import IndexSanitizer
from repro.core.config import IndeXYConfig
from repro.core.indexy import IndeXY
from repro.core.multi_y import RoutedIndexY
from repro.core.release import ReleasePolicy, select_for_release
from repro.lsm import LSMConfig, LSMStore, MemTable, SSTable
from repro.shard import RebalanceConfig, ShardRouter
from repro.sim import EngineRuntime
from repro.systems.base import KVSystem
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


# ----------------------------------------------------------------------
# The knob census: an option whose only value in use was its default is
# a constant now, and a caller still passing one is told so.
# ----------------------------------------------------------------------
SUBSTRATE_KEYWORDS = ("costs", "thread_model", "runtime")


@pytest.mark.parametrize("keyword", SUBSTRATE_KEYWORDS)
@pytest.mark.parametrize("name", registered_systems())
def test_systems_take_no_substrate_keyword(name, keyword):
    with pytest.raises(TypeError, match=keyword):
        build_system(name, memory_limit_bytes=128 * 1024, **{keyword: None})


@pytest.mark.parametrize("keyword", SUBSTRATE_KEYWORDS)
def test_engines_take_no_substrate_keyword(keyword):
    config = TpccConfig(warehouses=1, customers_per_district=10, items=100)
    builders = {
        "KVSystem": KVSystem,
        "ShardRouter": ShardRouter,
        "TpccEngine": lambda **kw: TpccEngine(config, **kw),
    }
    for label, build in builders.items():
        with pytest.raises(TypeError, match=keyword):
            build(**{keyword: None})
            pytest.fail(f"{label} accepted {keyword}=")


@pytest.mark.parametrize("keyword", ("clock", "disk", "costs", "thread_model"))
def test_engine_runtime_takes_no_arguments(keyword):
    with pytest.raises(TypeError):
        EngineRuntime(**{keyword: None})
    with pytest.raises(TypeError):
        EngineRuntime(None)


#: every other deleted field or parameter, passed at its old default.
REMOVED_OPTIONS = {
    "IndeXYConfig.preclean_batch_keys": lambda: IndeXYConfig(1, preclean_batch_keys=None),
    "IndeXYConfig.min_partition_regions": lambda: IndeXYConfig(1, min_partition_regions=16),
    "IndeXYConfig.sample_every": lambda: IndeXYConfig(1, sample_every=4),
    "IndeXYConfig.density_variation_threshold": (
        lambda: IndeXYConfig(1, density_variation_threshold=0.2)
    ),
    "IndeXYConfig.release_margin_fraction": (
        lambda: IndeXYConfig(1, release_margin_fraction=0.1)
    ),
    "select_for_release.margin_fraction": (
        lambda: select_for_release(AdaptiveRadixTree(), 0, margin_fraction=0.1)
    ),
    "select_for_release.variation_threshold": (
        lambda: select_for_release(AdaptiveRadixTree(), 0, variation_threshold=0.2)
    ),
    "select_for_release.max_iterations": (
        lambda: select_for_release(AdaptiveRadixTree(), 0, max_iterations=10_000)
    ),
    "ReleasePolicy.select.margin_fraction+variation_threshold": (
        lambda: ReleasePolicy().select(AdaptiveRadixTree(), 0, 0.1, 0.2)
    ),
    "ReleasePolicy.seed": lambda: ReleasePolicy(seed=1234),
    "IndexSanitizer.max_deleted_tracked": lambda: IndexSanitizer(None, max_deleted_tracked=512),
    "LSMConfig.bits_per_key": lambda: LSMConfig(bits_per_key=10),
    "LSMConfig.max_levels": lambda: LSMConfig(max_levels=7),
    "SSTable.build.bits_per_key": lambda: SSTable.build(1, None, None, None, [], bits_per_key=10),
    "SSTable.build.background": lambda: SSTable.build(1, None, None, None, [], background=True),
    "MemTable.seed": lambda: MemTable(None, None, seed=0x5EED),
    "BackgroundScheduler.drain.task": lambda: EngineRuntime().scheduler.drain(None),
    "RebalanceConfig.decay": lambda: RebalanceConfig(decay=0.5),
    "RebalanceConfig.sample_size": lambda: RebalanceConfig(sample_size=64),
    "RebalanceConfig.min_shards": lambda: RebalanceConfig(min_shards=1),
}


@pytest.mark.parametrize("option", REMOVED_OPTIONS)
def test_removed_option_is_rejected(option):
    with pytest.raises(TypeError):
        REMOVED_OPTIONS[option]()


@pytest.mark.parametrize("part", ("decay:0.5", "samples:64", "min_shards:2"))
def test_rebalance_spec_rejects_removed_knobs_by_name(part):
    with pytest.raises(ValueError, match=f"unknown name in spec part '{part}'"):
        RebalanceConfig.from_spec(part)
    with pytest.raises(ValueError, match=f"'{part}'"):
        build_system("Sharded@rebalance=" + part, memory_limit_bytes=128 * 1024)

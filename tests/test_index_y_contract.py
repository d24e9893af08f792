"""The "any Index Y" contract: what ``core/`` asks of an on-disk index.

The twin of ``test_index_x_contract.py``.  ``LSMStore`` and
``DiskBPlusTree`` implement :class:`repro.core.interfaces.IndexY`
themselves, and ``RoutedIndexY`` composes two of them.  Each test drives
the protocol the way ``core/`` does — sorted ``put_batch`` write-backs,
``get``, ``delete`` and ``scan`` — and checks the Y against a dict model,
so a fourth Index Y has one file to pass.  The stores are sized small
enough that the run crosses memtable flushes, compactions and a two-frame
buffer pool's evictions.
"""

import random

import pytest

from repro.art import encode_int
from repro.core.multi_y import KeyRegionRouter, RoutedIndexY
from repro.diskbtree import DiskBPlusTree
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime

PAGE_SIZE = 512
#: the largest entry a test writes: limits above it are checked only for refusal.
HELD_BYTES = 1 << 20


def make_lsm(runtime):
    config = LSMConfig(
        memtable_bytes=2 * 1024, block_size=256, block_cache_bytes=1024,
        level0_table_limit=2, level1_bytes=8 * 1024,
    )  # fmt: skip
    return LSMStore(runtime, config)


def make_btree(runtime):
    return DiskBPlusTree(runtime, pool_bytes=2 * PAGE_SIZE, page_size=PAGE_SIZE)


def make_routed(runtime):
    router = KeyRegionRouter("lsm", "btree", region_prefix_bytes=6, min_ops=8)
    backends = {"lsm": make_lsm(runtime), "btree": make_btree(runtime)}
    return RoutedIndexY(backends, router, runtime)


YS = {"lsm": make_lsm, "btree": make_btree, "routed": make_routed}


@pytest.fixture(params=sorted(YS))
def world(request):
    runtime = EngineRuntime()
    return runtime, YS[request.param](runtime)


def check_memory(y):
    """``memory_bytes`` is a non-negative int, within what each Y may hold."""
    used = y.memory_bytes
    assert isinstance(used, int) and used >= 0
    if isinstance(y, DiskBPlusTree):
        assert used <= y.pool.config.capacity_bytes
    if isinstance(y, RoutedIndexY):
        assert used == sum(backend.memory_bytes for backend in y.backends.values())
        for backend in y.backends.values():
            check_memory(backend)


def check_model(y, model, rng):
    """Point reads, absent keys and scans from a few starts agree with ``model``."""
    ordered = sorted(model.items())
    for key in rng.sample(sorted(model), min(40, len(model))):
        assert y.get(key) == model[key]
    assert y.get(encode_int(10**9)) is None
    for start in [encode_int(0), *rng.sample(sorted(model), min(3, len(model)))]:
        want = [kv for kv in ordered if kv[0] >= start][:30]
        assert y.scan(start, 30) == want
    check_memory(y)


def backends_of(y):
    return list(y.backends.values()) if isinstance(y, RoutedIndexY) else [y]


def test_verbs_match_a_dict_across_flushes_compactions_and_evictions(world):
    runtime, y = world
    rng = random.Random(45)
    model: dict[bytes, bytes] = {}
    for step in range(300):
        # A write-back hands Y a sorted batch, as release and pre-clean do.
        batch = {
            encode_int(rng.randrange(5000)): b"v%d-" % step + rng.randbytes(rng.randrange(40))
            for __ in range(rng.randrange(1, 20))
        }
        y.put_batch(sorted(batch.items()))
        model.update(batch)
        check_memory(y)
        for key in rng.sample(sorted(model), min(3, len(model))):
            y.delete(key)
            del model[key]
            assert y.get(key) is None
        y.delete(encode_int(10**9))  # an absent key: a no-op for the model
        check_memory(y)
        if step % 25 == 0:
            check_model(y, model, rng)
    check_model(y, model, rng)
    assert y.scan(encode_int(0), len(model) + 10) == sorted(model.items())
    assert y.scan(encode_int(0), 0) == []
    # The run crossed what it was sized to cross.
    for backend in backends_of(y):
        if isinstance(backend, LSMStore):
            assert backend.stats.get("flushes") > 0
            assert backend.stats.get("compactions") > 0
        else:
            assert backend.pool.stats.get("evictions") > 0


class _Reported(bytes):
    """A short value that reports ``length`` bytes.

    A refusal reads only ``len``, so a limit of gigabytes is checked one
    byte over without holding that many bytes.
    """

    def __new__(cls, length: int) -> "_Reported":
        claimed = super().__new__(cls, b"x")
        claimed.length = length
        return claimed

    def __len__(self) -> int:
        return self.length


def at_limits(y):
    """Entries exactly at each of ``y``'s limits, of at most ``HELD_BYTES``."""
    key_room = min(y.max_key_bytes, y.max_entry_bytes - y.max_value_bytes)
    lengths = [
        (y.max_key_bytes, min(y.max_entry_bytes - y.max_key_bytes, 16)),
        (key_room, y.max_value_bytes),
        (8, y.max_entry_bytes - 8),
    ]
    # Sized before any bytes exist: an LSM store's limits are gigabytes.
    return [(b"k" * k, b"v" * v) for k, v in lengths if k + v <= HELD_BYTES]


def over_limits(y):
    """One entry a byte over each of ``y``'s limits."""

    def value(length):
        return b"v" * length if length <= HELD_BYTES else _Reported(length)

    return [
        (b"k" * (y.max_key_bytes + 1), b"v"),
        (b"k", value(y.max_value_bytes + 1)),
        (b"k" * 8, value(y.max_entry_bytes - 7)),
    ]


def test_limits_are_ints_and_consistent(world):
    __, y = world
    for limit in (y.max_key_bytes, y.max_value_bytes, y.max_entry_bytes):
        assert isinstance(limit, int) and limit > 0
    assert y.max_entry_bytes <= y.max_key_bytes + y.max_value_bytes
    if isinstance(y, RoutedIndexY):
        for name in ("max_key_bytes", "max_value_bytes", "max_entry_bytes"):
            assert getattr(y, name) == min(getattr(b, name) for b in y.backends.values())


def test_an_entry_at_each_limit_reads_back_and_one_byte_over_is_refused(world):
    runtime, y = world
    rng = random.Random(7)
    model = {encode_int(i): b"filler-%d" % i for i in range(0, 600, 3)}
    y.put_batch(sorted(model.items()))
    entries = at_limits(y)
    assert entries, "every Y takes an entry at its key limit"
    for key, value in entries:
        y.put_batch([(key, value)])
        model[key] = value
        # More writes push the entry out to disk before it is read back.
        filler = {encode_int(i): b"again-%d" % i for i in range(1, 600, 3)}
        y.put_batch(sorted(filler.items()))
        model.update(filler)
        assert y.get(key) == value
        check_model(y, model, rng)
    for key, value in over_limits(y):
        before = (runtime.clock.cpu_ns, runtime.disk.busy_ns, y.memory_bytes)
        with pytest.raises(ValueError):
            y.put_batch([(key, value)])
        assert (runtime.clock.cpu_ns, runtime.disk.busy_ns, y.memory_bytes) == before
        assert y.get(key) == model.get(key)
        check_model(y, model, rng)
    assert y.scan(b"", len(model) + 10) == sorted(model.items())

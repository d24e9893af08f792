"""Every Index Y declares the largest entry it stores; nothing larger gets in.

An IndeXY system refuses an entry over its Index Y's limits in
``IndeXY.insert``, before Index X holds it; a baseline's index refuses it in
its own ``put``.  Either way the refusal changes nothing, and an entry right
at the limit travels through releases and a flush like any other.
"""

import pytest

from repro.art.keys import INT_KEY_WIDTH, encode_int
from repro.lsm.store import LSMStore
from repro.sim import EngineRuntime
from repro.systems import build_system

LIMIT = 256 * 1024
SYSTEMS = ("ART-LSM", "ART-B+", "B+-B+", "RocksDB", "ART-Multi")
#: the systems whose Index Y is an LSM store: its 2-byte key column is the
#: limit a test can reach (its 4-byte value column is not), so ART-LSM's
#: 65 536-byte key goes through ``index.insert``.
LSM_HOMED = ("ART-LSM", "RocksDB")
SMALL = b"s" * 100


def engine(system):
    """``(write, read, Index Y)`` of the system's engine, keyed by bytes."""
    if system.index is not None:
        return system.index.insert, system.index.get, system.index.y
    return system.y.put, system.y.get, system.y


def largest_entry(name, y):
    """The longest entry ``y`` stores, and the same entry one byte longer."""
    if name in LSM_HOMED:
        key = b"k" * y.max_key_bytes
        return (key, SMALL), (key + b"k", SMALL)
    key = encode_int(10**9)
    value = b"v" * (y.max_entry_bytes - INT_KEY_WIDTH)
    return (key, value), (key, value + b"v")


def state(system):
    return system.snapshot(), system.stats.as_dict(), system.memory_bytes


@pytest.mark.parametrize("name", SYSTEMS)
def test_an_entry_at_the_limit_is_kept_and_one_byte_more_is_refused(name):
    system = build_system(name, memory_limit_bytes=LIMIT, debug_checks=True)
    write, read, y = engine(system)
    system.put_many(range(3000), SMALL)
    (key, value), (long_key, long_value) = largest_entry(name, y)

    before = state(system)
    with pytest.raises(ValueError):
        write(long_key, long_value)
    assert state(system) == before
    if system.index is not None:
        assert system.index.x.search(long_key) is None
    system.flush()  # nothing refused is waiting to fail here
    assert read(long_key) is None
    assert system.get_many(range(0, 3000, 7)) == [SMALL] * len(range(0, 3000, 7))

    write(key, value)
    cycles = system.stats["release_cycles"]
    system.put_many(range(3000, 6000), SMALL)
    if system.index is not None:
        assert system.stats["release_cycles"] > cycles
    system.flush()
    assert y.get(key) == value  # written to Index Y
    assert read(key) == value
    assert system.get_many(range(0, 6000, 7)) == [SMALL] * len(range(0, 6000, 7))


@pytest.mark.parametrize("name", [n for n in SYSTEMS if n not in LSM_HOMED])
def test_a_refused_verb_is_no_op(name):
    system = build_system(name, memory_limit_bytes=LIMIT)
    system.put_many(range(100), SMALL)
    too_long = b"v" * (engine(system)[2].max_entry_bytes - INT_KEY_WIDTH + 1)
    before = state(system)
    for verb in (
        lambda: system.insert(1000, too_long),
        lambda: system.update(7, too_long),  # an overwrite is refused too
        lambda: system.put_many([1001, 1002], too_long),
    ):
        with pytest.raises(ValueError):
            verb()
        assert state(system) == before  # no op overhead, no op counted
    assert system.read(7) == SMALL


def test_lsm_store_refuses_a_long_key_before_the_memtable_holds_it():
    store = LSMStore(EngineRuntime())
    with pytest.raises(ValueError, match="65535-byte keys"):
        store.put_batch([(b"a", b"1"), (b"k" * 70000, b"v"), (b"b", b"2")])
    assert len(store._memtable) == 1  # the pairs before the refused one
    store.flush()  # used to raise struct.error on the key column
    assert store.get(b"a") == b"1"
    assert store.get(b"k" * 70000) is None
    assert store.get(b"b") is None


def test_art_multi_refuses_a_value_only_its_lsm_home_could_store():
    system = build_system("ART-Multi", memory_limit_bytes=LIMIT)
    y = system.index.y
    assert y.max_entry_bytes == system.y_tree.max_entry_bytes
    value = b"v" * 5000
    assert len(value) < system.store.max_value_bytes  # the LSM home takes it
    # A region homed in the LSM can be re-homed to the B+ tree, where the
    # entry would not fit a page: it is refused before Index X holds it.
    with pytest.raises(ValueError, match="Index Y's limits"):
        system.insert(1, value)
    system.flush()
    assert system.read(1) is None

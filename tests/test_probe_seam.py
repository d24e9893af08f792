"""The substrate probe seam: ``EngineRuntime.subscribe``.

One subscription point sees every charge of an engine (its components
all hold the runtime's own clock and disk, ``tests/test_one_world.py``),
so a subscriber's running sums *are* the simulated-time accounts, bit
for bit; with no subscriber the four slots are ``None`` and the substrate
runs exactly the code it ran before the seam existed.
"""

import random
from collections import Counter

import pytest

from repro.sim.runtime import EngineRuntime
from repro.systems.factory import build_system, registered_systems

SINGLE_ENGINE = [name for name in registered_systems() if name != "Sharded"]

#: charge effect -> the account it lands on.
ACCOUNT = {"cpu_charge": "cpu", "bg_charge": "bg", "disk_read": "disk", "disk_write": "disk"}


def slots(runtime):
    return [
        runtime.clock._probe,
        runtime.disk._probe,
        runtime.stats._probe,
        runtime.disk.stats._probe,
    ]


def accounts(runtime):
    return {
        "cpu": runtime.clock.cpu_ns,
        "bg": runtime.clock.background_ns,
        "disk": runtime.disk.busy_ns,
    }


@pytest.mark.parametrize("name", SINGLE_ENGINE)
def test_a_subscriber_sees_every_charge_exactly(name):
    system = build_system(name, memory_limit_bytes=128 * 1024, debug_checks=False)
    runtime = system.runtime
    # Start from the accounts as construction left them, then add in the
    # order the substrate does: the sums must stay *equal*, not close.
    sums = accounts(runtime)
    events = Counter()
    requests_before = (runtime.disk.stats["reads"], runtime.disk.stats["writes"])

    def probe(effect, amount):
        events[effect] += 1
        if effect != "stat":
            sums[ACCOUNT[effect]] += amount

    runtime.subscribe(probe)
    rng = random.Random(21)
    keys = rng.sample(range(10**7), 3000)
    for key in keys:
        system.insert(key, b"v" * 24)
    for key in keys[::3]:
        assert system.read(key) == b"v" * 24
    for key in keys[::7]:
        system.update(key, b"u" * 24)
    system.scan(keys[0], 40)
    for key in keys[::11]:
        system.delete(key)
    system.flush()

    assert sums == accounts(runtime)
    reads, writes = requests_before
    assert events["disk_read"] == runtime.disk.stats["reads"] - reads
    assert events["disk_write"] == runtime.disk.stats["writes"] - writes
    # The run really left memory, and the one account a system may leave
    # empty (ART-B+ has no background thread) is empty on both sides.
    assert events["cpu_charge"] and events["disk_read"] and events["disk_write"] and events["stat"]
    assert bool(events["bg_charge"]) == (runtime.clock.background_ns > 0)


@pytest.mark.parametrize("name", registered_systems())
def test_unchecked_systems_carry_no_probe(name):
    system = build_system(name, memory_limit_bytes=128 * 1024, debug_checks=False)
    for engine in [system, *getattr(system, "shards", [])]:
        assert slots(engine.runtime) == [None] * 4


def test_off_means_off_and_subscribers_fire_in_order():
    runtime = EngineRuntime()
    assert slots(runtime) == [None] * 4
    seen = []
    first = runtime.subscribe(lambda effect, amount: seen.append(("first", effect, amount)))
    second = runtime.subscribe(lambda effect, amount: seen.append(("second", effect, amount)))
    runtime.clock.charge_cpu(5.0)
    runtime.disk.stats.bump("probe", 2)
    assert seen == [
        ("first", "cpu_charge", 5.0),
        ("second", "cpu_charge", 5.0),
        ("first", "stat", 2),
        ("second", "stat", 2),
    ]
    first()
    runtime.clock.charge_background(7.0)
    assert seen[-1] == ("second", "bg_charge", 7.0) and len(seen) == 5
    second()
    assert slots(runtime) == [None] * 4
    runtime.clock.charge_cpu(1.0)
    assert len(seen) == 5


def test_a_probe_attached_after_construction_sees_bound_charges():
    # Components bind ``clock.charge_cpu`` at construction; the slot is
    # read at call time, so a late subscriber still sees them.
    runtime = EngineRuntime()
    charge = runtime.clock.charge_cpu
    seen = []
    runtime.subscribe(lambda effect, amount: seen.append(effect))
    charge(3.0)
    assert seen == ["cpu_charge"]


def test_a_raising_probe_leaves_the_account_untouched():
    runtime = EngineRuntime()
    clock, disk = runtime.clock, runtime.disk
    offset = disk.allocate(16)
    disk.write(offset, b"x" * 16)
    runtime.stats.bump("ops")
    before = (clock.snapshot(), disk.snapshot(), runtime.stats.snapshot(), disk.used_bytes)

    def veto(effect, amount):
        raise RuntimeError(effect)

    unsubscribe = runtime.subscribe(veto)
    for effect, mutate in [
        ("cpu_charge", lambda: clock.charge_cpu(1.0)),
        ("bg_charge", lambda: clock.charge_background(1.0)),
        ("disk_read", lambda: disk.read(offset)),
        ("disk_write", lambda: disk.write(offset, b"y" * 16)),
        ("stat", lambda: disk.allocate(16)),
        ("stat", lambda: disk.free(offset)),
        ("stat", lambda: runtime.stats.bump("ops")),
        ("stat", lambda: runtime.stats.record_max("peak", 9)),
    ]:
        with pytest.raises(RuntimeError, match=effect):
            mutate()
    unsubscribe()
    assert (clock.snapshot(), disk.snapshot(), runtime.stats.snapshot(), disk.used_bytes) == before
    assert disk.allocate(16) == offset + disk.spec.block_size  # the vetoed extent was not taken

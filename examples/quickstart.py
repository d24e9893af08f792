"""Quickstart: build an index larger than memory in a few lines.

Composes IndeXY from its parts — an ART as the in-memory Index X and an
LSM tree as the on-disk Index Y — gives it a small memory budget, then
inserts far more data than the budget allows.  The framework pre-cleans,
releases cold subtrees, and reloads keys on demand; every key stays
reachable throughout.

Run:  python examples/quickstart.py
"""

import random

from repro.art import AdaptiveRadixTree, encode_int
from repro.core import IndeXY, IndeXYConfig
from repro.lsm import LSMConfig, LSMStore
from repro.sim import EngineRuntime


def main() -> None:
    # One engine, one substrate: the simulated clock (deterministic,
    # interpreter-independent), the simulated SSD (sequential/random latency
    # model), the cost model and the background scheduler that X, Y and the
    # framework all share.
    runtime = EngineRuntime()

    index = IndeXY(
        index_x=AdaptiveRadixTree(clock=runtime.clock, costs=runtime.costs),
        index_y=LSMStore(runtime, LSMConfig(memtable_bytes=32 * 1024)),
        config=IndeXYConfig(memory_limit_bytes=128 * 1024),  # tiny on purpose
        runtime=runtime,
    )

    print("Inserting 20,000 keys under a 128 KiB memory budget ...")
    rng = random.Random(7)
    keys = rng.sample(range(1 << 40), 20_000)
    for key in keys:
        index.insert(encode_int(key), b"value-%08d" % (key % 10**8))

    print(f"  Index X now holds      : {index.x.key_count:,} keys")
    print(f"  Index X memory         : {index.x.memory_bytes / 1024:.0f} KiB "
          f"(limit {index.config.memory_limit_bytes / 1024:.0f} KiB)")
    print(f"  release cycles         : {index.stats['release_cycles']:.0f}")
    print(f"  pre-cleanings          : {index.stats['preclean_cleanings']:.0f}")
    print(f"  subtrees dropped clean : {index.stats['release_clean_drops']:.0f}")

    print("\nReading every key back (hits in X, or loaded from Y) ...")
    missing = sum(1 for key in keys if index.get(encode_int(key)) is None)
    print(f"  missing keys           : {missing}")
    print(f"  served from X          : {index.stats['x_hits']:.0f}")
    print(f"  loaded from Y          : {index.stats['y_hits']:.0f}")

    start = encode_int(min(keys))
    print("\nRange scan across both tiers:")
    for key, value in index.scan(start, 5):
        print(f"  {int.from_bytes(key, 'big'):>15,}  ->  {value.decode()}")

    print(f"\nSimulated time spent: {runtime.clock.cpu_ns / 1e6:.1f} ms CPU, "
          f"{runtime.disk.busy_ns / 1e6:.1f} ms disk")
    assert missing == 0


if __name__ == "__main__":
    main()

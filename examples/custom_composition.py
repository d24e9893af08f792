"""Composing your own extensible index (the framework's whole point).

The paper's claim is that X and Y are *pluggable*: anything satisfying the
IndexX / IndexY protocols integrates without touching the framework.  This
example pairs the in-memory B+ tree (instead of ART) with the LSM store,
swaps in the "coarse" release policy, and tightens the pre-cleaning timer —
all through configuration.

It also demonstrates writing a custom Index Y: a trivial sorted-array
store is defined below in ~40 lines and dropped straight into IndeXY.

Run:  python examples/custom_composition.py
"""

import bisect
import random

from repro.btree import BPlusTree
from repro.core import IndeXY, IndeXYConfig, ReleasePolicy
from repro.sim import EngineRuntime, SimDisk


class SortedRunStoreY:
    """A minimal custom Index Y: an append-merged sorted array on disk.

    Satisfies the ``IndexY`` protocol (put_batch / get / delete / scan /
    memory_bytes, and the three entry limits).  Not efficient — the point
    is how little is needed.
    """

    #: the largest key, value and entry it stores; IndeXY refuses more
    #: before Index X holds it.  A chosen bound: no length field sets one.
    max_key_bytes = max_value_bytes = max_entry_bytes = 64 * 1024

    def __init__(self, disk: SimDisk) -> None:
        self._disk = disk
        self._keys: list[bytes] = []
        self._values: list[bytes] = []

    def put_batch(self, pairs):
        for key, value in pairs:
            i = bisect.bisect_left(self._keys, key)
            if i < len(self._keys) and self._keys[i] == key:
                self._values[i] = value
            else:
                self._keys.insert(i, key)
                self._values.insert(i, value)
        # One sequential "segment write" per batch.
        blob_size = sum(len(k) + len(v) for k, v in pairs)
        if blob_size:
            offset = self._disk.allocate(blob_size)
            self._disk.write(offset, b"\x00" * blob_size)

    def get(self, key: bytes):
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return self._values[i]
        return None

    def delete(self, key: bytes) -> None:
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            del self._keys[i], self._values[i]

    def scan(self, start: bytes, count: int):
        i = bisect.bisect_left(self._keys, start)
        return list(zip(self._keys[i : i + count], self._values[i : i + count]))

    @property
    def memory_bytes(self) -> int:
        return 0  # everything "on disk" for this toy store


def main() -> None:
    runtime = EngineRuntime()  # the one clock/disk/scheduler of this engine
    index = IndeXY(
        index_x=BPlusTree(capacity=32, clock=runtime.clock),
        index_y=SortedRunStoreY(runtime.disk),
        config=IndeXYConfig(
            memory_limit_bytes=96 * 1024,
            preclean_interval_inserts=1024,  # clean more eagerly
            low_watermark=0.7,  # release deeper per cycle
        ),
        runtime=runtime,
        release_policy=ReleasePolicy("coarse", partition_depth=2),
    )

    from repro.art import encode_int

    rng = random.Random(3)
    keys = rng.sample(range(1 << 32), 8_000)
    for key in keys:
        index.insert(encode_int(key), b"custom")

    missing = sum(1 for k in keys if index.get(encode_int(k)) is None)
    print("Composition: B+ tree (X)  +  custom sorted-run store (Y)")
    print(f"  keys inserted : {len(keys):,}")
    print(f"  keys missing  : {missing}")
    print(f"  X keys resident: {index.x.key_count:,}")
    print(f"  release cycles : {index.stats['release_cycles']:.0f}")
    print(f"  policy         : coarse (low-density partitions, no split)")
    assert missing == 0
    print("\nAny ordered index pair plugs in the same way.")


if __name__ == "__main__":
    main()

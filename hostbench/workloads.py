"""The five workloads: system under test, seeded op stream, dict model.

Everything the program receives is generated here, from ``--seed``, into
``array`` buffers before timing starts; the timed loop only indexes them.
Op counts are fixed per requested second (``ops_per_second`` below,
tuned once on the 2-core reference box so one repeat's timed phase lasts
about ``--seconds / REPEATS``), never time-boxed, so two commits measured
with the same arguments do identical work.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from typing import Callable

from repro.systems.base import KVSystem
from repro.systems.factory import build_system
from repro.workloads import ScrambledZipfianGenerator, ZipfianGenerator, random_insert_keys

READ, WRITE, SCAN, GET_MANY = range(4)

KEY_SPACE = 1 << 40
SCAN_COUNT = 50
BATCH_KEYS = 16
MIB = 1 << 20

#: 251 distinct 100-byte values.  Preload writes ``VALUES[0]``; the j-th
#: later write uses ``VALUES[1 + j % 250]``, so a stale or lost update
#: reads back a different value than the model holds.
VALUES = [(b"%03d" % i).ljust(100, b"v") for i in range(251)]
#: user bytes per stored pair: 8-byte encoded key + 100-byte value.
PAIR_BYTES = 8 + len(VALUES[0])


class OpStream:
    """Parallel op arrays; a GET_MANY op's key slot indexes ``batch``."""

    def __init__(self) -> None:
        self.kinds = array("B")
        self.keys = array("Q")
        self.batch = array("Q")

    def add(self, kind: int, key: int) -> None:
        self.kinds.append(kind)
        self.keys.append(key)

    def add_get_many(self, keys: list[int]) -> None:
        self.add(GET_MANY, len(self.batch))
        self.batch.extend(keys)

    def __len__(self) -> int:
        return len(self.kinds)


@dataclass(frozen=True)
class Workload:
    name: str
    #: timed ops per second of ``--seconds`` (the frozen op budget).
    ops_per_second: int
    #: untimed ops run (and checked) before the first stamp.
    warmup_ops: int
    preload_keys: int
    #: never-inserted keys the generator may consume, per op.
    fresh_per_op: float
    #: checkpoint after preload; off for the in-memory workload, where a
    #: flush would populate Y and end the X-only fast path.
    flush_after_preload: bool
    build: Callable[[], KVSystem]
    #: ``generate(rng, preloaded, fresh, n)`` -> the ``n``-op stream;
    #: ``fresh`` are distinct never-inserted keys.
    generate: Callable[[random.Random, list[int], list[int], int], OpStream]


def _zipf_positions(rng: random.Random, population: int, theta: float) -> ZipfianGenerator:
    return ZipfianGenerator(population, theta, seed=rng.getrandbits(32))


def _gen_mem_point(
    rng: random.Random, preloaded: list[int], fresh: list[int], n: int
) -> OpStream:
    stream = OpStream()
    stream.keys.extend(rng.choices(preloaded, k=n))
    chance = rng.random
    stream.kinds.extend(WRITE if chance() < 0.10 else READ for __ in range(n))
    return stream


def _gen_spill_write(
    rng: random.Random, preloaded: list[int], fresh: list[int], n: int
) -> OpStream:
    stream = OpStream()
    stream.keys.extend(fresh[:n])
    stream.kinds.extend(bytes([WRITE]) * n)
    return stream


def _gen_spill_read(
    rng: random.Random, preloaded: list[int], fresh: list[int], n: int
) -> OpStream:
    # Plain (unscrambled) Zipf over the sorted keys: popular keys are
    # neighbours, which is what gives subtree release its locality.
    ordered = sorted(preloaded)
    zipf = _zipf_positions(rng, len(ordered), 0.99)
    chance = rng.random
    stream = OpStream()
    for __ in range(n):
        stream.add(WRITE if chance() < 0.05 else READ, ordered[zipf.next()])
    return stream


def _gen_page_mixed(
    rng: random.Random, preloaded: list[int], fresh: list[int], n: int
) -> OpStream:
    ordered = sorted(preloaded)
    zipf = _zipf_positions(rng, len(ordered), 0.99)
    chance = rng.random
    stream = OpStream()
    for __ in range(n):
        r = chance()
        kind = READ if r < 0.50 else WRITE if r < 0.95 else SCAN
        stream.add(kind, ordered[zipf.next()])
    return stream


#: serve_skew's load shape.  63 % of the routed keys come from a hot range
#: a fifth of the key positions wide, 92 % of it on shard 0 and the rest
#: on shard 1; the other keys are spread evenly.  Counting a get_many as
#: its 16 keys, the four range shards start near (65, 15, 10, 10) % of
#: the load: max/mean 2.6, well over the 2.2 trigger.  One diffusion step
#: levels the first pair to about (40, 40), max/mean 1.6, well under it.
#: Every seed then pays for one migration of about the same size; a hot
#: range that ends near the trigger starts a seed-dependent cascade.
_HOT_SHARE = 0.632
_HOT_WIDTH = 0.20
_HOT_LO = 0.25 - 0.917 * _HOT_WIDTH


def _gen_serve_skew(
    rng: random.Random, preloaded: list[int], fresh: list[int], n: int
) -> OpStream:
    ordered = sorted(preloaded)
    lo = int(_HOT_LO * len(ordered))
    hot = ordered[lo : lo + int(_HOT_WIDTH * len(ordered))]
    # Scrambled Zipf inside the range: skewed popularity whose load is
    # still spread evenly along the key order the range shards split on.
    zipf = ScrambledZipfianGenerator(len(hot), 0.6, seed=rng.getrandbits(32))
    chance = rng.random
    pick = rng.randrange

    def key() -> int:
        if chance() < _HOT_SHARE:
            return hot[zipf.next()]
        return ordered[pick(len(ordered))]

    stream = OpStream()
    inserted = 0
    for __ in range(n):
        r = chance()
        if r < 0.90:
            stream.add(READ, key())
        elif r < 0.97:
            stream.add(WRITE, fresh[inserted])
            inserted += 1
        elif r < 0.995:
            stream.add_get_many([key() for __ in range(BATCH_KEYS)])
        else:
            # 0.5 %, not 1 %: an op class that is exactly the slowest
            # 1 % would put host_p99_us on the edge between two modes.
            stream.add(SCAN, key())
    return stream


_SERVE_KEYS = 24_000

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="mem_point",
            ops_per_second=230_000,
            warmup_ops=20_000,
            preload_keys=300_000,
            fresh_per_op=0.0,
            flush_after_preload=False,
            build=lambda: build_system("ART-LSM", 256 * MIB),
            generate=_gen_mem_point,
        ),
        Workload(
            name="spill_write",
            ops_per_second=13_000,
            warmup_ops=1_000,
            preload_keys=30_000,
            fresh_per_op=1.0,
            flush_after_preload=True,
            # 256 KiB puts a release cycle every ~300 inserts, so the
            # preload ends past cycle 90 and timing starts in the steady
            # state of release selection (see README.md, Workloads).
            build=lambda: build_system("ART-LSM", MIB // 4),
            generate=_gen_spill_write,
        ),
        Workload(
            name="spill_read",
            ops_per_second=70_000,
            warmup_ops=50_000,
            preload_keys=60_000,
            fresh_per_op=0.0,
            flush_after_preload=True,
            build=lambda: build_system("ART-LSM", 1 * MIB),
            generate=_gen_spill_read,
        ),
        Workload(
            name="page_mixed",
            ops_per_second=27_000,
            warmup_ops=2_000,
            preload_keys=40_000,
            fresh_per_op=0.0,
            flush_after_preload=True,
            build=lambda: build_system("ART-B+", MIB // 4),
            generate=_gen_page_mixed,
        ),
        Workload(
            name="serve_skew",
            ops_per_second=24_000,
            warmup_ops=0,
            preload_keys=_SERVE_KEYS,
            fresh_per_op=0.08,
            flush_after_preload=True,
            build=lambda: build_system(
                "Sharded",
                _SERVE_KEYS * PAIR_BYTES // 3,
                base_system="ART-LSM",
                shards=4,
                partitioner="weighted",
                key_space=KEY_SPACE,
                workers=0,
                rebalance="threshold:2.2+cooldown:8",
                budget="on",
            ),
            generate=_gen_serve_skew,
        ),
    )
}


def make_inputs(
    workload: Workload, seed: int, ops: int
) -> tuple[list[int], OpStream, dict[int, bytes]]:
    """(preload keys, warm-up + timed op stream, dict model after preload)."""
    total = workload.warmup_ops + ops
    # The slack covers the binomial spread of a fractional insert share.
    fresh_keys = int(total * workload.fresh_per_op) + 64 if workload.fresh_per_op else 0
    keys = random_insert_keys(
        workload.preload_keys + fresh_keys, key_space=KEY_SPACE, seed=seed
    )
    preloaded = keys[: workload.preload_keys]
    fresh = keys[workload.preload_keys :]
    stream = workload.generate(random.Random(seed ^ 0x5EED), preloaded, fresh, total)
    if len(stream) != total:
        raise AssertionError(f"{workload.name}: generated {len(stream)} ops, wanted {total}")
    return preloaded, stream, dict.fromkeys(preloaded, VALUES[0])

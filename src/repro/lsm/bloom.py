"""Bloom filter with deterministic double hashing.

Python's built-in ``hash`` is randomized per process, so the filter hashes
with FNV-1a and a second mixing constant instead — runs reproduce exactly.

The filter is defined by the scalar :func:`hash_pair`,
:meth:`BloomFilter.add` and :meth:`BloomFilter.may_contain_hashed`: the
hash belongs to the key alone, so ``LSMStore.get`` takes it once and every
table it probes only walks its own bits.  :meth:`BloomFilter.add_many` is the
whole-table kernel that SSTable builds run, and it sets exactly the bits a
loop of ``add`` would.  It hashes all keys of one length together, each key
in its own 128-bit lane of one Python big integer, so the FNV-1a rounds and
the double-hashing walk are a few C-level big-integer operations per byte
position instead of a bytecode loop per key.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from itertools import groupby
from struct import unpack

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1

#: bytes per key lane.  A 64-bit hash times the 41-bit prime stays below
#: 2**105, ``h << 31`` below 2**95 and ``h + delta`` below 2**65: no step
#: carries into the next lane before it is masked back to 64 bits.
_LANE = 16
#: keys hashed per big integer; bounds the kernel's transient memory (a
#: few ``_LANE * _LANE_BATCH``-byte integers) whatever the table size.
#: Per-key time is flat from 256 to 2048; at 2048 ``serve_skew``'s
#: peak RSS sat 0.4 MiB above the scalar loop's, at 512 it does not.
_LANE_BATCH = 512


def hash_pair(key: bytes) -> tuple[int, int]:
    """``(h, delta)``: 64-bit FNV-1a of ``key`` and the double-hashing stride ``rotl(h, 31) | 1``.

    The one scalar definition of the filter's hash.  It does not depend on
    the filter, so a point read computes it once and probes every table's
    filter with it (:meth:`BloomFilter.may_contain_hashed`).
    """
    h = _FNV_OFFSET
    for byte in key:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h, ((h >> 33) | (h << 31)) & _MASK64 | 1


def fnv1a(data: bytes) -> int:
    """64-bit FNV-1a hash."""
    return hash_pair(data)[0]


def _lanes(value: int, count: int) -> int:
    """``value`` (64-bit) repeated in each of ``count`` lanes."""
    return int.from_bytes(value.to_bytes(_LANE, "little") * count, "little")


def _probe_words(keys: list[bytes], num_hashes: int) -> Iterator[tuple[int, ...]]:
    """Every probe word ``(h + i * delta) mod 2**64``, ``i < num_hashes``, of every key.

    Keys of one length are hashed together, ``_LANE_BATCH`` at a time.  The
    words come two rounds of the walk at a time, in no particular order
    (marking filter bits is order-free).
    """
    for size, same_size in groupby(sorted(keys, key=len), len):
        group = list(same_size)
        for at in range(0, len(group), _LANE_BATCH):
            batch = group[at : at + _LANE_BATCH]
            count = len(batch)
            width = _LANE * count
            mask = _lanes(_MASK64, count)
            # FNV-1a over byte column ``i`` of every key at once.
            column = bytearray(width)
            data = b"".join(batch)
            h = _lanes(_FNV_OFFSET, count)
            for i in range(size):
                column[::_LANE] = data[i::size]
                h = ((h ^ int.from_bytes(column, "little")) * _FNV_PRIME) & mask
            # ``h >> 33`` drags the next lane's low bits into this lane's
            # high half; the mask drops them.
            delta = ((h >> 33) | (h << 31)) & mask | _lanes(1, count)
            decode = f"<{2 * count}Q"  # explicitly little-endian, like the lanes
            for left in range(num_hashes, 0, -2):
                # Two rounds per decode: the next one rides in the lanes' idle
                # high words (an odd last round rides twice; marking is
                # idempotent).
                pair = (h + delta) & mask if left > 1 else h
                yield unpack(decode, (h | pair << 64).to_bytes(width, "little"))
                h = (pair + delta) & mask


class BloomFilter:
    """A fixed-size bloom filter sized by bits-per-key."""

    def __init__(self, expected_keys: int, bits_per_key: int = 10) -> None:
        if expected_keys < 1:
            expected_keys = 1
        self.num_bits = max(64, expected_keys * bits_per_key)
        self.num_hashes = max(1, int(bits_per_key * 0.69))  # ln2 * bits/key
        self._bits = bytearray((self.num_bits + 7) // 8)

    @classmethod
    def build(cls, keys: Iterable[bytes], bits_per_key: int = 10) -> "BloomFilter":
        keys = list(keys)
        bloom = cls(len(keys), bits_per_key)
        bloom.add_many(keys)
        return bloom

    # ``add``/``may_contain_hashed`` are the scalar definition of the filter
    # — ``(h, delta) = hash_pair(key)``, position
    # ``((h + i * delta) mod 2**64) mod num_bits``, bit ``p`` is bit
    # ``p & 7`` of byte ``p >> 3`` — which ``add_many`` must match bit for
    # bit: the positions decide the false positives, hence which tables a
    # read probes, hence the simulated results.
    def add(self, key: bytes) -> None:
        h, delta = hash_pair(key)
        bits = self._bits
        num_bits = self.num_bits
        for __ in range(self.num_hashes):
            pos = h % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + delta) & _MASK64

    def may_contain(self, key: bytes) -> bool:
        return self.may_contain_hashed(hash_pair(key))

    def may_contain_hashed(self, pair: tuple[int, int]) -> bool:
        """``may_contain`` of the key whose :func:`hash_pair` is ``pair``."""
        h, delta = pair
        bits = self._bits
        num_bits = self.num_bits
        for __ in range(self.num_hashes):
            pos = h % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h = (h + delta) & _MASK64
        return True

    def add_many(self, keys: list[bytes]) -> None:
        """Add every key; the same bits as ``for key in keys: self.add(key)``."""
        num_bits = self.num_bits
        # One ASCII digit per filter bit, bit 0 first; packed once at the end.
        marks = bytearray(b"0") * (len(self._bits) * 8)
        for words in _probe_words(keys, self.num_hashes):
            for word in words:
                marks[word % num_bits] = 49  # b"1"
        marks.reverse()  # ``int(text, 2)`` reads the most significant bit first
        merged = int.from_bytes(self._bits, "little") | int(marks, 2)
        self._bits[:] = merged.to_bytes(len(self._bits), "little")

    def memory_bytes(self) -> int:
        return len(self._bits)

"""The column layout both Index Y stores write: one owner for its bytes.

A *run* is ``count`` sorted key/value entries stored as columns, all
big-endian: every key length (2 bytes each), every value length (4 bytes
each), the keys, then the values.  An SSTable block is a run at offset 0
whose count the table keeps in memory (``lsm/sstable.py``); a disk B+ leaf
is a header holding the count, then a run (``diskbtree/page.py``).  A run
is exactly as long as the earlier per-entry row layout (a 6-byte length
pair before each entry), so every offset, disk request and charge sized
from one is too.

Encoding is one ``pack`` of the length columns, a caller's header fused
in front (:func:`length_columns`), plus one ``join``.  Decoding is one
``unpack_from`` of the lengths and one of a ``Struct`` of byte strings of
those lengths: no Python code runs per entry.  A point read bisects the
keys in place and slices out only the keys it compares
(:func:`find_value`).

This module belongs to no hostbench layer (a layer is a ``repro/``
sub-package), so both stores' traced runs count its calls in neither.
"""

from __future__ import annotations

from functools import cache
from itertools import accumulate, islice
from struct import Struct
from typing import Iterable, Optional, Sequence

#: bytes of one entry's two lengths: key (2) and value (4).
ENTRY_BYTES = 6
#: the longest key and value the ``>H`` and ``>I`` length columns record.
MAX_KEY_BYTES = (1 << 16) - 1
MAX_VALUE_BYTES = (1 << 32) - 1


@cache
def length_columns(count: int, head: str = "") -> Struct:
    """The header fields ``head``, then a ``count``-entry run's length columns."""
    return Struct(f">{head}{count}H{count}I")


class _Fields(dict[int, str]):
    """Length ``n`` -> ``"{n}s"``, the struct field of an ``n``-byte string."""

    def __missing__(self, length: int) -> str:
        field = self[length] = f"{length}s"
        return field


#: ``Struct(">" + "".join(map(_FIELD.__getitem__, lengths)))`` lays out
#: back-to-back byte strings of ``lengths``: one unpack slices them all.
_FIELD = _Fields()


def encode_run(
    keys: Sequence[bytes],
    values: Sequence[bytes],
    key_lengths: Iterable[int],
    value_lengths: Iterable[int],
) -> bytes:
    """One run: one ``pack`` of the lengths, then the bytes."""
    lengths = length_columns(len(keys)).pack(*key_lengths, *value_lengths)
    return b"".join((lengths, *keys, *values))


def run_fits(blob: bytes, count: int) -> bool:
    """Whether ``count`` entries' length columns account for exactly ``blob``."""
    size = ENTRY_BYTES * count
    if not 0 <= size <= len(blob):
        return False
    return size + sum(length_columns(count).unpack_from(blob)) == len(blob)


def unpack_strings(blob: bytes, lengths: Iterable[int], at: int) -> tuple[bytes, ...]:
    """The byte strings of ``lengths``, back to back in ``blob`` from ``at``."""
    return Struct(">" + "".join(map(_FIELD.__getitem__, lengths))).unpack_from(blob, at)


def run_columns(blob: bytes, count: int, at: int = 0) -> tuple[bytes, ...]:
    """The run's ``count`` keys, then its ``count`` values."""
    # unpack_strings of the length columns, inlined: one Python call per run.
    lengths = length_columns(count)
    fields = map(_FIELD.__getitem__, lengths.unpack_from(blob, at))
    return Struct(">" + "".join(fields)).unpack_from(blob, at + lengths.size)


def run_pairs(blob: bytes, count: int) -> list[tuple[bytes, bytes]]:
    """The run at offset 0 as ``count`` (key, value) pairs."""
    parts = run_columns(blob, count)
    return list(zip(islice(parts, count), islice(parts, count, None)))


def run_keys(blobs: list[bytes], counts: list[int]) -> list[bytes]:
    """Every key of the runs ``blobs`` (``counts`` entries each, at offset 0), in order."""
    keys: list[bytes] = []
    extend = keys.extend
    for blob, count in zip(blobs, counts, strict=True):
        # unpack_strings of the key lengths, inlined: one Python call in all.
        lengths = length_columns(count)
        fields = map(_FIELD.__getitem__, islice(lengths.unpack_from(blob), count))
        extend(Struct(">" + "".join(fields)).unpack_from(blob, lengths.size))
    return keys


def find_value(blob: bytes, count: int, key: bytes, at: int = 0) -> Optional[slice]:
    """Where in ``blob`` the run at ``at`` holds ``key``'s value, or ``None``.

    Bisects the run's sorted keys in place, at offsets accumulated from the
    length columns: what decoding the run plus a bisect finds, slicing out
    only the keys it compares.
    """
    lengths = length_columns(count)
    bounds = list(accumulate(lengths.unpack_from(blob, at), initial=at + lengths.size))
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) >> 1
        if blob[bounds[mid] : bounds[mid + 1]] < key:
            lo = mid + 1
        else:
            hi = mid
    if lo < count and blob[bounds[lo] : bounds[lo + 1]] == key:
        return slice(bounds[count + lo], bounds[count + lo + 1])
    return None

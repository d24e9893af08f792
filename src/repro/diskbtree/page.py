"""Page layouts and codec for the on-disk B+ tree.

A page is a leaf (sorted key/value entries plus a next-leaf link) or an
inner node (separators plus child page ids).  The byte-size helpers let the
tree decide when a page overflows its fixed on-disk size and must split.

The wire format is a column layout, all fields big-endian:

* leaf: tag(1) next_leaf(8) count(4), then every key length (2 bytes
  each), every value length (4 bytes each), the keys, the values;
* inner: tag(1) count(4), then every separator length (2 bytes each),
  the separators, the ``count + 1`` child page ids (8 bytes each).

Encoding is one ``pack`` of the header and lengths plus one ``join``;
decoding is one ``unpack_from`` of the lengths and an ``accumulate`` of
them into offsets.  A page's encoded length is that of the earlier
per-entry row layout, so every charge derived from it is too.

A decoded leaf is lazy: it keeps its blob and entry offsets,
:meth:`LeafPage.lookup` finds a key inside the blob, and
:meth:`LeafPage.overwrite` replaces a value of the same length there.
Its ``keys`` and ``values`` lists are built together on the first read of
either.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from struct import Struct, pack, unpack_from
from typing import Optional, Union

PAGE_HEADER_BYTES = 32
#: per-entry sizing overhead of a leaf: its key (2) and value (4) lengths.
LEAF_ENTRY_BYTES = 6
#: sizing overhead of an inner page: each separator's length, each child's id.
SEPARATOR_LENGTH_BYTES = 2
CHILD_BYTES = 8
_LEAF_TAG = 1
_INNER_TAG = 2
_NO_PAGE = (1 << 64) - 1

#: tag(1) + next_leaf(8) + entry count(4).
_LEAF_HEADER = Struct(">BQI")
#: the next_leaf field, after the tag.
_NEXT_LEAF = Struct(">Q")
#: tag(1) + separator count(4).
_INNER_HEADER = Struct(">BI")
_LAZY_LISTS = ("keys", "values")


class LeafPage:
    """Sorted entries; ``next_leaf`` chains leaves for range scans.

    A leaf from :func:`decode_page` holds ``_blob`` and ``_offsets`` (the
    ``2 * count + 1`` boundaries of its keys, then of its values) and
    leaves ``keys``/``values`` unset; ``__getattr__`` builds both lists on
    the first read of either and drops the blob and offsets, which from
    then on may be stale.  Read a decoded leaf's lists before replacing
    them.
    """

    __slots__ = ("keys", "values", "next_leaf", "_blob", "_offsets")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self.next_leaf: Optional[int] = None
        self._blob: Optional[bytes] = None

    def __getattr__(self, name: str) -> list[bytes]:
        if name not in _LAZY_LISTS or self._blob is None:
            raise AttributeError(f"'LeafPage' object has no attribute {name!r}")
        blob = self._blob
        offsets = self._offsets
        count = len(offsets) >> 1
        parts = [blob[start:end] for start, end in zip(offsets, islice(offsets, 1, None))]
        self.keys = parts[:count]
        self.values = parts[count:]
        self._blob = None
        del self._offsets
        return self.keys if name == "keys" else self.values

    def lookup(self, key: bytes) -> Optional[bytes]:
        """The value stored under ``key``, or None; a lazy leaf stays lazy."""
        blob = self._blob
        if blob is None:
            keys = self.keys
            i = bisect_left(keys, key)
            if i < len(keys) and keys[i] == key:
                return self.values[i]
            return None
        at = self._value_at(blob, key)
        if at < 0:
            return None
        offsets = self._offsets
        return blob[offsets[at] : offsets[at + 1]]

    def overwrite(self, key: bytes, value: bytes) -> bool:
        """Replace ``key``'s value inside the blob of a lazy leaf.

        Only when the leaf holds ``key`` and ``value`` keeps the stored
        length, so every offset stays put; False (and nothing changed)
        otherwise, and always for a materialised leaf.
        """
        blob = self._blob
        if blob is None:
            return False
        at = self._value_at(blob, key)
        if at < 0:
            return False
        offsets = self._offsets
        start, end = offsets[at], offsets[at + 1]
        if end - start != len(value):
            return False
        self._blob = b"".join((blob[:start], value, blob[end:]))
        return True

    def _value_at(self, blob: bytes, key: bytes) -> int:
        """Index in ``_offsets`` of ``key``'s value in ``blob``, or -1."""
        offsets = self._offsets
        count = len(offsets) >> 1
        lo, hi = 0, count
        while lo < hi:
            mid = (lo + hi) >> 1
            if blob[offsets[mid] : offsets[mid + 1]] < key:
                lo = mid + 1
            else:
                hi = mid
        if lo < count and blob[offsets[lo] : offsets[lo + 1]] == key:
            return count + lo
        return -1

    def payload_bytes(self) -> int:
        keys = self.keys
        values = self.values
        if len(keys) == len(values):
            return (
                PAGE_HEADER_BYTES
                + LEAF_ENTRY_BYTES * len(keys)
                + sum(map(len, keys))
                + sum(map(len, values))
            )
        # Mismatched lengths only occur in corrupted fixtures; the
        # sanitizers size those too, so the mismatch must surface as a
        # finding, not a crash (hence strict=False).
        return PAGE_HEADER_BYTES + sum(
            LEAF_ENTRY_BYTES + len(k) + len(v) for k, v in zip(keys, values, strict=False)
        )

    @property
    def entry_count(self) -> int:
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LeafPage(n={len(self.keys)})"


class InnerPage:
    """Separators and child page ids; ``len(children) == len(separators)+1``."""

    __slots__ = ("separators", "children")

    def __init__(self) -> None:
        self.separators: list[bytes] = []
        self.children: list[int] = []

    def payload_bytes(self) -> int:
        separators = self.separators
        return (
            PAGE_HEADER_BYTES
            + SEPARATOR_LENGTH_BYTES * len(separators)
            + sum(map(len, separators))
            + CHILD_BYTES * len(self.children)
        )

    def child_slot(self, key: bytes) -> int:
        return bisect_right(self.separators, key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"InnerPage(children={len(self.children)})"


Page = Union[LeafPage, InnerPage]
#: allocates a page without running ``__init__`` (no Python frame).
_new = object.__new__


def copy_page(page: Page) -> Page:
    """Structural copy of a page (fresh lists, shared immutable entries).

    Value-equal to ``decode_page(encode_page(page))``: a lazy leaf's copy
    shares its blob and offsets, anything else gets two C-level list
    copies.  The buffer pool serves fault-ins from its decode memo with it.
    """
    if isinstance(page, LeafPage):
        leaf = _new(LeafPage)
        leaf.next_leaf = page.next_leaf
        blob = page._blob
        leaf._blob = blob
        if blob is None:
            leaf.keys = page.keys[:]
            leaf.values = page.values[:]
        else:
            leaf._offsets = page._offsets
        return leaf
    inner = _new(InnerPage)
    inner.separators = page.separators[:]
    inner.children = page.children[:]
    return inner


def encode_page(page: Page) -> bytes:
    """Serialize a page to bytes (variable length, <= the page size)."""
    if isinstance(page, LeafPage):
        next_leaf = _NO_PAGE if page.next_leaf is None else page.next_leaf
        blob = page._blob
        if blob is not None:
            # Never materialised: the entries are the blob's own.
            if _NEXT_LEAF.unpack_from(blob, 1)[0] == next_leaf:
                return blob
            return b"".join((blob[:1], _NEXT_LEAF.pack(next_leaf), blob[_NEXT_LEAF.size + 1 :]))
        keys = page.keys
        values = page.values
        count = len(keys)
        if len(values) != count:
            raise ValueError(f"leaf has {count} keys but {len(values)} values")
        head = pack(
            f">BQI{count}H{count}I",
            _LEAF_TAG,
            next_leaf,
            count,
            *map(len, keys),
            *map(len, values),
        )
        return b"".join((head, *keys, *values))
    separators = page.separators
    count = len(separators)
    head = pack(f">BI{count}H", _INNER_TAG, count, *map(len, separators))
    return b"".join((head, *separators, pack(f">{count + 1}Q", *page.children)))


def decode_page(blob: bytes) -> Page:
    """Invert :func:`encode_page`; a leaf comes back lazy."""
    tag = blob[0]
    if tag == _LEAF_TAG:
        __, next_leaf, count = _LEAF_HEADER.unpack_from(blob)
        start = _LEAF_HEADER.size
        lengths = unpack_from(f">{count}H{count}I", blob, start)
        leaf = _new(LeafPage)
        leaf.next_leaf = None if next_leaf == _NO_PAGE else next_leaf
        leaf._blob = blob
        leaf._offsets = list(accumulate(lengths, initial=start + LEAF_ENTRY_BYTES * count))
        return leaf
    if tag == _INNER_TAG:
        __, count = _INNER_HEADER.unpack_from(blob)
        start = _INNER_HEADER.size
        offsets = list(accumulate(unpack_from(f">{count}H", blob, start), initial=start + 2 * count))
        inner = _new(InnerPage)
        inner.separators = [blob[a:b] for a, b in zip(offsets, islice(offsets, 1, None))]
        inner.children = list(unpack_from(f">{count + 1}Q", blob, offsets[-1]))
        return inner
    raise ValueError(f"unknown page tag {tag}")

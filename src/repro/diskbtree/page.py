"""Page layouts and codec for the on-disk B+ tree.

A page is a leaf (sorted key/value entries plus a next-leaf link) or an
inner node (separators plus child page ids).  The byte-size helpers let the
tree decide when a page overflows its fixed on-disk size and must split.

All fields are big-endian:

* leaf: tag(1) next_leaf(8) count(4), then the entries as one run of
  :mod:`repro.columns`, whose layout, search and decoding live there;
* inner: tag(1) count(4), then every separator length (2 bytes each),
  the separators, the ``count + 1`` child page ids (8 bytes each).

A page's encoded length is that of the earlier per-entry row layout, so
every charge derived from it is too.

A decoded leaf is lazy: it keeps its blob and entry count,
:meth:`LeafPage.lookup` finds a key inside the blob, and
:meth:`LeafPage.overwrite` replaces a value of the same length there.
Its ``keys`` and ``values`` lists are built together on the first read of
either.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from struct import Struct, pack, unpack_from
from typing import Optional, Union

from repro.columns import ENTRY_BYTES, find_value, length_columns, run_columns, unpack_strings

PAGE_HEADER_BYTES = 32
#: sizing overhead of an inner page: each separator's length, each child's id.
SEPARATOR_LENGTH_BYTES = 2
CHILD_BYTES = 8
_LEAF_TAG = 1
_INNER_TAG = 2
_NO_PAGE = (1 << 64) - 1

#: tag(1) + next_leaf(8) + entry count(4), then the run.
_LEAF_HEAD = "BQI"
_LEAF_HEADER = Struct(">" + _LEAF_HEAD)
_RUN_AT = _LEAF_HEADER.size
#: the next_leaf field, after the tag.
_NEXT_LEAF = Struct(">Q")
#: tag(1) + separator count(4).
_INNER_HEADER = Struct(">BI")
_LAZY_LISTS = ("keys", "values")


class LeafPage:
    """Sorted entries; ``next_leaf`` chains leaves for range scans.

    A leaf from :func:`decode_page` holds ``_blob`` and ``_count`` (its
    entries) and leaves ``keys``/``values`` unset; ``__getattr__`` builds
    both lists on the first read of either and drops the blob, whose
    entries from then on may be stale.  Read a decoded leaf's lists before
    replacing them.
    """

    __slots__ = ("keys", "values", "next_leaf", "_blob", "_count")

    def __init__(self) -> None:
        self.keys: list[bytes] = []
        self.values: list[bytes] = []
        self.next_leaf: Optional[int] = None
        self._blob: Optional[bytes] = None

    def __getattr__(self, name: str) -> list[bytes]:
        if name not in _LAZY_LISTS or self._blob is None:
            raise AttributeError(f"'LeafPage' object has no attribute {name!r}")
        count = self._count
        keys = list(run_columns(self._blob, count, _RUN_AT))
        self.values = keys[count:]
        del keys[count:]
        self.keys = keys
        self._blob = None
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
        span = find_value(blob, self._count, key, _RUN_AT)
        return None if span is None else blob[span]

    def overwrite(self, key: bytes, value: bytes) -> bool:
        """Replace ``key``'s value inside the blob of a lazy leaf.

        Only when the leaf holds ``key`` and ``value`` keeps the stored
        length, so every offset stays put; False (and nothing changed)
        otherwise, and always for a materialised leaf.
        """
        blob = self._blob
        if blob is None:
            return False
        span = find_value(blob, self._count, key, _RUN_AT)
        if span is None or span.stop - span.start != len(value):
            return False
        self._blob = b"".join((blob[: span.start], value, blob[span.stop :]))
        return True

    def payload_bytes(self) -> int:
        keys = self.keys
        values = self.values
        if len(keys) == len(values):
            return (
                PAGE_HEADER_BYTES
                + ENTRY_BYTES * len(keys)
                + sum(map(len, keys))
                + sum(map(len, values))
            )
        # Mismatched lengths only occur in corrupted fixtures; the
        # sanitizers size those too, so the mismatch must surface as a
        # finding, not a crash (hence strict=False).
        return PAGE_HEADER_BYTES + sum(
            ENTRY_BYTES + len(k) + len(v) for k, v in zip(keys, values, strict=False)
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
    shares its blob, anything else gets two C-level list
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
            leaf._count = page._count
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
        head = length_columns(count, _LEAF_HEAD).pack(
            _LEAF_TAG, next_leaf, count, *map(len, keys), *map(len, values)
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
        leaf = _new(LeafPage)
        leaf.next_leaf = None if next_leaf == _NO_PAGE else next_leaf
        leaf._blob = blob
        leaf._count = count
        return leaf
    if tag == _INNER_TAG:
        __, count = _INNER_HEADER.unpack_from(blob)
        lengths = unpack_from(f">{count}H", blob, _INNER_HEADER.size)
        at = _INNER_HEADER.size + SEPARATOR_LENGTH_BYTES * count
        inner = _new(InnerPage)
        inner.separators = list(unpack_strings(blob, lengths, at))
        inner.children = list(unpack_from(f">{count + 1}Q", blob, at + sum(lengths)))
        return inner
    raise ValueError(f"unknown page tag {tag}")

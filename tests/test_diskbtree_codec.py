"""The column page codec and lazy leaves, pinned to the row codec they replaced.

``row_encode``/``row_decode`` below are the earlier per-entry codec kept
verbatim (a ``(klen, vlen)`` header before each entry, a length before each
separator).  The column layout must decode to the same page and encode to
the same byte length, so every charge sized from a blob stays the same.
A decoded leaf is lazy; its in-blob ``lookup`` must agree with a bisect on
its materialised lists, and no mutation may make ``encode_page`` hand back
the blob it was decoded from.
"""

import bisect
from struct import Struct
from typing import Optional

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.diskbtree import InnerPage, LeafPage, decode_page, encode_page
from repro.diskbtree.page import copy_page

# ----------------------------------------------------------------------
# reference: the row-layout codec
# ----------------------------------------------------------------------
_NO_PAGE = (1 << 64) - 1
_LEAF_HEADER = Struct(">BQI")
_LEAF_ENTRY = Struct(">HI")
_INNER_HEADER = Struct(">BI")
_SEP_LEN = Struct(">H")


def row_encode(page):
    if isinstance(page, LeafPage):
        next_leaf = _NO_PAGE if page.next_leaf is None else page.next_leaf
        parts = [_LEAF_HEADER.pack(1, next_leaf, len(page.keys))]
        extend = parts.extend
        pack_entry = _LEAF_ENTRY.pack
        for key, value in zip(page.keys, page.values, strict=True):
            extend((pack_entry(len(key), len(value)), key, value))
        return b"".join(parts)
    separators = page.separators
    parts = [_INNER_HEADER.pack(2, len(separators))]
    extend = parts.extend
    pack_len = _SEP_LEN.pack
    for sep in separators:
        extend((pack_len(len(sep)), sep))
    children = page.children
    parts.append(Struct(f">{len(children)}Q").pack(*children))
    return b"".join(parts)


def row_decode(blob):
    tag = blob[0]
    if tag == 1:
        leaf = LeafPage()
        __, next_leaf, count = _LEAF_HEADER.unpack_from(blob)
        leaf.next_leaf = None if next_leaf == _NO_PAGE else next_leaf
        pos = _LEAF_HEADER.size
        for __ in range(count):
            klen, vlen = _LEAF_ENTRY.unpack_from(blob, pos)
            pos += 6
            leaf.keys.append(blob[pos : pos + klen])
            pos += klen
            leaf.values.append(blob[pos : pos + vlen])
            pos += vlen
        return leaf
    inner = InnerPage()
    __, count = _INNER_HEADER.unpack_from(blob)
    pos = _INNER_HEADER.size
    for __ in range(count):
        (slen,) = _SEP_LEN.unpack_from(blob, pos)
        pos += 2
        inner.separators.append(blob[pos : pos + slen])
        pos += slen
    inner.children.extend(Struct(f">{count + 1}Q").unpack_from(blob, pos))
    return inner


def bisect_lookup(leaf: LeafPage, key: bytes) -> Optional[bytes]:
    i = bisect.bisect_left(leaf.keys, key)
    if i < len(leaf.keys) and leaf.keys[i] == key:
        return leaf.values[i]
    return None


# ----------------------------------------------------------------------
# strategies
# ----------------------------------------------------------------------
next_leaves = st.one_of(st.none(), st.integers(min_value=0, max_value=2**40))


@st.composite
def leaves(draw):
    entries = draw(
        st.dictionaries(st.binary(min_size=1, max_size=24), st.binary(max_size=60), max_size=40)
    )
    leaf = LeafPage()
    leaf.keys = sorted(entries)
    leaf.values = [entries[k] for k in leaf.keys]
    leaf.next_leaf = draw(next_leaves)
    return leaf


@st.composite
def inners(draw):
    separators = sorted(draw(st.sets(st.binary(min_size=1, max_size=24), max_size=40)))
    children = draw(
        st.lists(
            st.integers(min_value=0, max_value=2**63),
            min_size=len(separators) + 1,
            max_size=len(separators) + 1,
        )
    )
    inner = InnerPage()
    inner.separators = separators
    inner.children = children
    return inner


def same_page(a, b) -> bool:
    if isinstance(a, LeafPage):
        return (
            isinstance(b, LeafPage)
            and (a.keys, a.values, a.next_leaf) == (b.keys, b.values, b.next_leaf)
        )
    return isinstance(b, InnerPage) and (a.separators, a.children) == (b.separators, b.children)


# ----------------------------------------------------------------------
# the codec against the reference
# ----------------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(st.one_of(leaves(), inners()))
def test_codec_matches_row_layout(page):
    blob = encode_page(page)
    assert len(blob) == len(row_encode(page))
    assert same_page(decode_page(blob), row_decode(row_encode(page)))
    assert same_page(decode_page(blob), page)


@settings(max_examples=150, deadline=None)
@given(leaves(), st.lists(st.binary(max_size=26), max_size=10))
def test_lazy_lookup_matches_bisect(page, probes):
    lazy = decode_page(encode_page(page))
    present = page.keys[:: max(1, len(page.keys) // 5)]
    answers = [lazy.lookup(key) for key in [*present, *probes]]
    assert lazy._blob is not None  # lookups leave the leaf lazy
    assert answers == [bisect_lookup(page, key) for key in [*present, *probes]]
    # and the materialised leaf answers the same
    assert lazy.keys == page.keys
    assert answers == [lazy.lookup(key) for key in [*present, *probes]]


@settings(max_examples=100, deadline=None)
@given(leaves())
def test_untouched_lazy_leaf_encodes_to_its_blob(page):
    blob = encode_page(page)
    lazy = decode_page(blob)
    assert encode_page(lazy) is blob
    assert encode_page(copy_page(lazy)) is blob


# ----------------------------------------------------------------------
# mutations of a lazy leaf never encode to the stale blob
# ----------------------------------------------------------------------
def mutate_insert(leaf):
    i = bisect.bisect_left(leaf.keys, b"\x00mid")
    if i < len(leaf.keys) and leaf.keys[i] == b"\x00mid":
        leaf.values[i] = b"changed"
    else:
        leaf.keys.insert(i, b"\x00mid")
        leaf.values.insert(i, b"new")


def mutate_value(leaf):
    if leaf.values:
        leaf.values[-1] = leaf.values[-1] + b"!"
    else:
        leaf.keys.append(b"only")
        leaf.values.append(b"v")


def mutate_delete(leaf):
    if leaf.keys:
        del leaf.keys[0], leaf.values[0]


def mutate_next_leaf(leaf):
    leaf.next_leaf = 7 if leaf.next_leaf != 7 else None


def mutate_split(leaf):
    mid = len(leaf.keys) // 2
    del leaf.keys[mid:], leaf.values[mid:]
    leaf.next_leaf = 123


MUTATIONS = [mutate_insert, mutate_value, mutate_delete, mutate_next_leaf, mutate_split]


@settings(max_examples=150, deadline=None)
@given(leaves(), st.sampled_from(MUTATIONS), st.booleans())
def test_mutated_lazy_leaf_round_trips(page, mutate, through_copy):
    lazy = decode_page(encode_page(page))
    if through_copy:
        lazy = copy_page(lazy)
    # the same mutation on an eager leaf is the expected result
    expected = LeafPage()
    expected.keys, expected.values = page.keys[:], page.values[:]
    expected.next_leaf = page.next_leaf
    mutate(expected)
    mutate(lazy)
    blob = encode_page(lazy)
    assert blob == encode_page(expected)
    assert same_page(decode_page(blob), expected)
    for key in expected.keys:
        assert decode_page(blob).lookup(key) == bisect_lookup(expected, key)


def test_lazy_leaf_copy_materialises_independently():
    page = LeafPage()
    page.keys, page.values = [b"a", b"b"], [b"1", b"2"]
    lazy = decode_page(encode_page(page))
    twin = copy_page(lazy)
    lazy.values[0] = b"changed"
    assert twin.lookup(b"a") == b"1"
    assert twin.values == [b"1", b"2"]
    assert lazy.lookup(b"a") == b"changed"


@settings(max_examples=150, deadline=None)
@given(leaves(), st.data())
def test_overwrite_in_the_blob_matches_the_lists(page, data):
    lazy = decode_page(encode_page(page))
    probes = st.binary(max_size=26)
    key = data.draw(st.one_of(st.sampled_from(page.keys), probes) if page.keys else probes)
    old = bisect_lookup(page, key)
    size = len(old) if old is not None and data.draw(st.booleans()) else None
    value = data.draw(st.binary(min_size=size or 0, max_size=70 if size is None else size))
    done = lazy.overwrite(key, value)
    assert done == (old is not None and len(old) == len(value))
    assert lazy._blob is not None  # done or refused, the leaf stays lazy
    if done:
        page.values[page.keys.index(key)] = value
    assert encode_page(lazy) == encode_page(page)
    assert lazy.lookup(key) == bisect_lookup(page, key)
    assert (lazy.keys, lazy.values) == (page.keys, page.values)
    assert not lazy.overwrite(key, value)  # never in place once materialised

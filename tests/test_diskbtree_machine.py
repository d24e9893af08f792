"""A state machine over the disk B+ tree, with a two-frame buffer pool.

Two frames are less than one descent pins, so nearly every page access
faults, every leaf it reads starts lazy (blob only, lists on first read),
equal-length overwrites land in the blob, and the decode memo serves most
fault-ins.  Each rule runs against a dict model, and after every step the
tree's structure, the pool's bookkeeping and its pin counts are checked.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.art import encode_int
from repro.check.sanitizer import check_buffer_pool, check_disk_btree, check_no_leaked_pins
from repro.diskbtree import DiskBPlusTree
from repro.sim import EngineRuntime

PAGE_SIZE = 256
keys = st.integers(0, 400).map(encode_int)
values = st.binary(max_size=40)


class DiskBTreeMachine(RuleBasedStateMachine):
    def __init__(self) -> None:
        super().__init__()
        self.tree = DiskBPlusTree(EngineRuntime(), pool_bytes=2 * PAGE_SIZE, page_size=PAGE_SIZE)
        self.model: dict[bytes, bytes] = {}

    @rule(key=keys, value=values)
    def put(self, key, value):
        assert self.tree.put(key, value) == (key not in self.model)
        self.model[key] = value

    @rule(key=keys, data=st.data())
    def put_large(self, key, data):
        # Up to the largest entry a page takes: one among small entries
        # leaves a half of the middle cut overflowing, so the split must
        # cut it out onto a leaf of its own.
        size = data.draw(st.integers(0, self.tree.max_entry_bytes - len(key)))
        value = data.draw(st.binary(min_size=size, max_size=size))
        assert self.tree.put(key, value) == (key not in self.model)
        self.model[key] = value

    @rule(key=keys, data=st.data())
    def put_long_key(self, key, data):
        # Up to the longest key an inner page holds as its one separator:
        # a few long separators leave a half of the middle cut overflowing,
        # so the inner page must split by bytes.
        key += b"k" * data.draw(st.integers(0, self.tree.max_key_bytes - len(key)))
        value = data.draw(st.binary(max_size=min(40, self.tree.max_entry_bytes - len(key))))
        assert self.tree.put(key, value) == (key not in self.model)
        self.model[key] = value

    @precondition(lambda self: self.model)
    @rule(data=st.data())
    def overwrite_same_length(self, data):
        key = data.draw(st.sampled_from(sorted(self.model)))
        size = len(self.model[key])
        value = data.draw(st.binary(min_size=size, max_size=size))
        assert self.tree.put(key, value) is False
        self.model[key] = value

    @rule(key=keys)
    def put_oversized(self, key):
        with pytest.raises(ValueError, match=f"{PAGE_SIZE}-byte page"):
            self.tree.put(key, b"x" * PAGE_SIZE)
        with pytest.raises(ValueError, match=f"{PAGE_SIZE}-byte page"):
            self.tree.put(key.ljust(self.tree.max_key_bytes + 1, b"k"), b"")

    @rule(key=keys)
    def get(self, key):
        assert self.tree.get(key) == self.model.get(key)

    @rule(key=keys)
    def delete(self, key):
        assert self.tree.delete(key) == (key in self.model)
        self.model.pop(key, None)

    @rule(start=keys, count=st.integers(0, 30))
    def scan(self, start, count):
        expected = sorted(item for item in self.model.items() if item[0] >= start)[:count]
        assert self.tree.scan(start, count) == expected

    @rule()
    def flush_all(self):
        self.tree.flush_all()
        assert self.tree.pool._dirty_count == 0

    @invariant()
    def consistent(self):
        assert len(self.tree) == len(self.model)
        assert check_no_leaked_pins(self.tree.pool) == []
        assert check_disk_btree(self.tree) == []
        assert check_buffer_pool(self.tree.pool) == []


DiskBTreeMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=60, deadline=None
)
TestDiskBTreeMachine = DiskBTreeMachine.TestCase

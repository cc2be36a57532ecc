"""Tests for hash / sorted indexes and the cross-type total order."""

import pytest
from hypothesis import given, strategies as st

from repro.relational.errors import ConstraintError
from repro.relational.index import (
    HashIndex,
    SortedIndex,
    column_key_function,
    composite_key_function,
    total_order_key,
)


def make_hash(unique=False):
    return HashIndex("ix", "t", column_key_function(0), "col(a)", unique)


def make_sorted(unique=False):
    return SortedIndex("ix", "t", column_key_function(0), "col(a)", unique)


class TestHashIndex:
    def test_insert_lookup(self):
        index = make_hash()
        index.insert((0, 0), ("x", 1))
        index.insert((0, 1), ("x", 2))
        index.insert((0, 2), ("y", 3))
        assert sorted(index.lookup("x")) == [(0, 0), (0, 1)]
        assert index.lookup("z") == ()

    def test_delete(self):
        index = make_hash()
        index.insert((0, 0), ("x",))
        index.delete((0, 0), ("x",))
        assert index.lookup("x") == ()

    def test_delete_missing_is_noop(self):
        index = make_hash()
        index.delete((0, 0), ("x",))

    def test_unique_violation(self):
        index = make_hash(unique=True)
        index.insert((0, 0), ("x",))
        with pytest.raises(ConstraintError):
            index.insert((0, 1), ("x",))

    def test_unique_allows_nulls(self):
        index = make_hash(unique=True)
        index.insert((0, 0), (None,))
        index.insert((0, 1), (None,))

    def test_update_moves_entry(self):
        index = make_hash()
        index.insert((0, 0), ("x",))
        index.update((0, 0), ("x",), ("y",))
        assert index.lookup("x") == ()
        assert list(index.lookup("y")) == [(0, 0)]

    def test_distinct_keys(self):
        index = make_hash()
        for i, key in enumerate(["a", "b", "a", "c"]):
            index.insert((0, i), (key,))
        assert index.distinct_keys() == 3

    def test_key_grows_past_one_row_and_back(self):
        # a lone RID is stored bare, several as a list: every transition
        # between the two must keep lookups, deletes and len() exact
        index = make_hash()
        index.insert_many([(0, 0), (0, 1)], [("x",), ("y",)])
        assert list(index.lookup("x")) == [(0, 0)]
        index.insert((0, 2), ("x",))
        index.insert_many([(0, 3), (0, 4)], [("x",), ("y",)])
        assert sorted(index.lookup("x")) == [(0, 0), (0, 2), (0, 3)]
        assert len(index) == 5
        for rid in [(0, 0), (0, 3)]:
            index.delete(rid, ("x",))
        assert list(index.lookup("x")) == [(0, 2)]
        index.delete((0, 9), ("x",))  # not there: a no-op
        index.delete((0, 2), ("x",))
        assert index.lookup("x") == ()
        assert sorted(index.lookup("y")) == [(0, 1), (0, 4)]
        assert len(index) == 2 and index.distinct_keys() == 1

    def test_failed_bulk_insert_restores_lone_rids(self):
        index = make_hash(unique=True)
        index.insert((0, 0), ("x",))
        with pytest.raises(ConstraintError):
            index.insert_many([(0, 1), (0, 2)], [("y",), ("x",)])
        assert list(index.lookup("x")) == [(0, 0)]
        assert index.lookup("y") == ()
        assert len(index) == 1


class TestSortedIndex:
    def test_distinct_keys_follow_every_change(self):
        """The count is recounted from the entries on demand, so it is
        exact after every path that changes them: insert, delete, both
        batch paths and a swap of the contents.  Keys are distinct by
        their total order, so True and 1 are two."""
        index = make_sorted()

        def distinct():
            return len({order for order, __rid, __key in index._entries})

        for i, key in enumerate([5, 3, 5, None, None, True, 1]):
            index.insert((0, i), (key,))
        assert index.distinct_keys() == distinct() == 5
        index.delete((0, 0), (5,))  # 5 is still held by (0, 2)
        index.delete((0, 1), (3,))
        assert index.distinct_keys() == distinct() == 4
        # a small batch goes through insort, a large one through a sort
        index.insert_many([(1, 0)], [(7,)])
        index.insert_many([(2, i) for i in range(40)],
                          [(i % 4 + 1,) for i in range(40)])
        assert index.distinct_keys() == distinct() == 8
        saved = index.swap_contents()
        assert index.distinct_keys() == 0
        index.swap_contents(saved)
        assert index.distinct_keys() == distinct() == 8
        index.delete((0, 5), (True,))
        assert index.distinct_keys() == distinct() == 7

    def test_lookup(self):
        index = make_sorted()
        for i, key in enumerate([5, 3, 5, 9]):
            index.insert((0, i), (key,))
        assert sorted(index.lookup(5)) == [(0, 0), (0, 2)]

    def test_range_scan_inclusive(self):
        index = make_sorted()
        for i in range(10):
            index.insert((0, i), (i,))
        assert sorted(
            key for key in index.range_scan(3, 6)
        ) == [(0, 3), (0, 4), (0, 5), (0, 6)]

    def test_range_scan_exclusive_bounds(self):
        index = make_sorted()
        for i in range(10):
            index.insert((0, i), (i,))
        rids = list(index.range_scan(3, 6, low_inclusive=False,
                                     high_inclusive=False))
        assert sorted(rids) == [(0, 4), (0, 5)]

    def test_open_range_skips_nulls(self):
        index = make_sorted()
        index.insert((0, 0), (None,))
        index.insert((0, 1), (4,))
        index.insert((0, 2), (7,))
        assert sorted(index.range_scan(None, None)) == [(0, 1), (0, 2)]

    def test_delete(self):
        index = make_sorted()
        index.insert((0, 0), (4,))
        index.insert((0, 1), (4,))
        index.delete((0, 0), (4,))
        assert list(index.lookup(4)) == [(0, 1)]

    def test_unique_violation(self):
        index = make_sorted(unique=True)
        index.insert((0, 0), (4,))
        with pytest.raises(ConstraintError):
            index.insert((0, 1), (4,))

    def test_mixed_types_do_not_crash(self):
        index = make_sorted()
        for i, key in enumerate([3, "x", None, 2.5, True]):
            index.insert((0, i), (key,))
        assert len(index) == 5
        assert list(index.lookup("x")) == [(0, 1)]


class TestCompositeKeys:
    def test_composite_lookup(self):
        index = HashIndex(
            "ix", "t", composite_key_function([0, 1]), "col(a),col(b)"
        )
        index.insert((0, 0), ("x", 1))
        index.insert((0, 1), ("x", 2))
        assert list(index.lookup(("x", 1))) == [(0, 0)]


class TestTotalOrder:
    def test_rank_order(self):
        values = ["b", None, 3, True, 1.5, "a", False]
        ordered = sorted(values, key=total_order_key)
        assert ordered == [None, False, True, 1.5, 3, "a", "b"]

    @given(st.lists(st.one_of(st.none(), st.booleans(), st.integers(),
                              st.floats(allow_nan=False), st.text()),
                    max_size=30))
    def test_sort_never_raises(self, values):
        sorted(values, key=total_order_key)

    @given(st.integers(), st.integers())
    def test_consistent_with_int_order(self, a, b):
        assert (total_order_key(a) < total_order_key(b)) == (a < b)

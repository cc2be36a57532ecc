"""Tests for heap tables: CRUD, tombstones, index maintenance."""

import pytest

from repro.relational.errors import BindError, CatalogError, ConstraintError
from repro.relational.index import (
    HashIndex,
    SortedIndex,
    column_key_function,
)
from repro.relational.pages import PAGE_CAPACITY, BufferPool
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.table import HeapTable
from tests.crashkit import _index_keys


def make_table():
    schema = TableSchema(
        "t", [Column("a", ColumnType.INTEGER), Column("b", ColumnType.STRING)]
    )
    return HeapTable(schema, BufferPool())


class TestHeapTable:
    def test_insert_returns_rid_and_get(self):
        table = make_table()
        rid = table.insert((1, "x"))
        assert table.get(rid) == (1, "x")
        assert table.live_rows == 1

    def test_insert_coerces(self):
        table = make_table()
        rid = table.insert(("5", 7))
        assert table.get(rid) == (5, "7")

    def test_delete_tombstones(self):
        table = make_table()
        rid = table.insert((1, "x"))
        old = table.delete(rid)
        assert old == (1, "x")
        assert table.get(rid) is None
        assert table.live_rows == 0

    def test_double_delete_is_noop(self):
        table = make_table()
        rid = table.insert((1, "x"))
        table.delete(rid)
        assert table.delete(rid) is None
        assert table.live_rows == 0

    def test_update(self):
        table = make_table()
        rid = table.insert((1, "x"))
        old = table.update(rid, (2, "y"))
        assert old == (1, "x")
        assert table.get(rid) == (2, "y")

    def test_update_deleted_row_is_noop(self):
        table = make_table()
        rid = table.insert((1, "x"))
        table.delete(rid)
        assert table.update(rid, (2, "y")) is None

    def test_restore_undoes_delete(self):
        table = make_table()
        rid = table.insert((1, "x"))
        table.delete(rid)
        table.restore(rid, (1, "x"))
        assert table.get(rid) == (1, "x")
        assert table.live_rows == 1

    def test_scan_skips_tombstones(self):
        table = make_table()
        rids = [table.insert((i, str(i))) for i in range(5)]
        table.delete(rids[2])
        values = [row[0] for row in table.scan_rows()]
        assert values == [0, 1, 3, 4]

    def test_scan_yields_rids(self):
        table = make_table()
        rid = table.insert((1, "x"))
        assert list(table.scan()) == [(rid, (1, "x"))]


class TestIndexMaintenance:
    def attach(self, table):
        index = HashIndex("ix_a", "t", column_key_function(0), "col(a)")
        table.attach_index(index)
        return index

    def test_populate_existing_rows(self):
        table = make_table()
        rid = table.insert((7, "x"))
        index = self.attach(table)
        assert list(index.lookup(7)) == [rid]

    def test_insert_maintains(self):
        table = make_table()
        index = self.attach(table)
        rid = table.insert((7, "x"))
        assert list(index.lookup(7)) == [rid]

    def test_delete_maintains(self):
        table = make_table()
        index = self.attach(table)
        rid = table.insert((7, "x"))
        table.delete(rid)
        assert index.lookup(7) == ()

    def test_update_maintains(self):
        table = make_table()
        index = self.attach(table)
        rid = table.insert((7, "x"))
        table.update(rid, (9, "x"))
        assert index.lookup(7) == ()
        assert list(index.lookup(9)) == [rid]

    def test_duplicate_index_name_rejected(self):
        table = make_table()
        self.attach(table)
        with pytest.raises(CatalogError):
            self.attach(table)

    def test_find_index_by_fingerprint(self):
        table = make_table()
        index = self.attach(table)
        assert table.find_index("col(a)") is index
        assert table.find_index("col(b)") is None

    def test_failed_unique_insert_rolls_back_other_indexes(self):
        table = make_table()
        plain = HashIndex("ix_b", "t", column_key_function(1), "col(b)")
        unique = HashIndex(
            "ix_a", "t", column_key_function(0), "col(a)", unique=True
        )
        table.attach_index(plain)
        table.attach_index(unique)
        table.insert((1, "x"))
        with pytest.raises(Exception):
            table.insert((1, "y"))
        # the non-unique index must not keep a phantom entry for "y"
        assert plain.lookup("y") == ()
        assert table.live_rows == 1


def wide_table(pool_pages=None):
    """A table under a hash, a sorted and an expression index."""
    schema = TableSchema(
        "t", [Column("a", ColumnType.INTEGER), Column("b", ColumnType.STRING)]
    )
    table = HeapTable(schema, BufferPool(pool_pages))
    table._pool.bind_catalog({"t": table}.get)
    hashed = HashIndex(
        "ix_a", "t", column_key_function(0), "col(a)", unique=True
    )
    ordered = SortedIndex("ix_b", "t", column_key_function(1), "col(b)")
    expression = HashIndex(
        "ix_mod", "t", lambda row: row[0] % 10, "fn(mod,col(a),10)"
    )
    for index in (hashed, ordered, expression):
        table.attach_index(index)
    return table, hashed, ordered, expression


class TestInsertMany:
    COUNT = 2 * PAGE_CAPACITY + 37  # three pages, the last one partial

    def rows(self, start=0, count=None):
        count = self.COUNT if count is None else count
        return [(i, f"s{i:05d}") for i in range(start, start + count)]

    def test_rids_cross_page_boundaries_in_order(self):
        table, *__ = wide_table()
        rids = table.insert_many(self.rows())
        assert rids == [divmod(i, PAGE_CAPACITY) for i in range(self.COUNT)]
        assert table.page_count == 3
        assert table.live_rows == self.COUNT
        assert list(table.scan()) == list(zip(rids, self.rows()))

    def test_appends_continue_a_partial_page(self):
        table, *__ = wide_table()
        first = table.insert((0, "s00000"))
        rest = table.insert_many(self.rows(1, PAGE_CAPACITY))
        assert [first] + rest == [
            divmod(i, PAGE_CAPACITY) for i in range(PAGE_CAPACITY + 1)
        ]
        assert table.page_count == 2
        assert list(table.scan_rows()) == self.rows(0, PAGE_CAPACITY + 1)

    def test_same_state_as_row_at_a_time(self):
        bulk, *bulk_indexes = wide_table()
        single, *single_indexes = wide_table()
        bulk.insert_many(self.rows())
        for row in self.rows():
            single.insert(row)
        assert list(bulk.scan()) == list(single.scan())
        for one, other in zip(bulk_indexes, single_indexes):
            assert sorted(_index_keys(one)) == sorted(_index_keys(other))
        assert bulk_indexes[1]._entries == single_indexes[1]._entries

    def test_all_three_index_kinds_answer_lookups(self):
        table, hashed, ordered, expression = wide_table()
        rids = table.insert_many(self.rows())
        probe = PAGE_CAPACITY + 3  # a row on the second page
        assert list(hashed.lookup(probe)) == [rids[probe]]
        assert ordered.lookup(f"s{probe:05d}") == [rids[probe]]
        assert list(ordered.range_scan("s00000", "s00002")) == rids[:3]
        assert list(expression.lookup(3)) == rids[3::10]

    def test_coerces_by_column(self):
        table, *__ = wide_table()
        rids = table.insert_many([("5", 7), (6.0, "x"), (True, None)])
        assert [table.get(rid) for rid in rids] == [
            (5, "7"), (6, "x"), (1, None),
        ]

    def test_wrong_arity_changes_nothing(self):
        table, *__ = wide_table()
        with pytest.raises(BindError):
            table.insert_many([(1, "a"), (2,)])
        assert table.live_rows == table.page_count == 0

    def test_unique_violation_is_all_or_nothing(self):
        table, hashed, ordered, expression = wide_table()
        table.insert_many(self.rows(0, 10))
        before = list(table.scan())
        # the duplicate (key 5) sits past a page boundary of the batch
        batch = self.rows(100, PAGE_CAPACITY + 5) + [(5, "dup")]
        with pytest.raises(ConstraintError):
            table.insert_many(batch)
        assert list(table.scan()) == before
        assert table.live_rows == 10
        assert table.page_count == 1
        for index in (hashed, ordered, expression):
            assert len(index) == 10
        assert hashed.lookup(100) == ()
        assert ordered.lookup("dup") == []

    def test_duplicate_inside_one_batch_is_refused(self):
        table, hashed, *__ = wide_table()
        with pytest.raises(ConstraintError):
            table.insert_many([(1, "a"), (2, "b"), (1, "c")])
        assert table.live_rows == 0 and len(hashed) == 0

    def test_bounded_pool_spills_filled_pages(self):
        table, hashed, *__ = wide_table(pool_pages=1)
        rids = table.insert_many(self.rows())
        assert len(table._pool) == 1
        assert list(table.scan_rows()) == self.rows()
        assert table.get(rids[0]) == (0, "s00000")


class TestTruncate:
    def test_empties_pages_and_indexes(self):
        table, hashed, ordered, expression = wide_table()
        table.insert_many([(i, str(i)) for i in range(600)])
        assert table.truncate() == 600
        assert table.live_rows == table.page_count == 0
        assert list(table.scan()) == []
        assert len(table._pool) == 0
        for index in (hashed, ordered, expression):
            assert len(index) == 0
        assert table.truncate() == 0

    def test_rids_restart_and_pages_do_not_accumulate(self):
        table, hashed, *__ = wide_table()
        rows = [(i, str(i)) for i in range(600)]
        pages = []
        for __ in range(5):
            table.truncate()
            rids = table.insert_many(rows)
            pages.append(table.page_count)
            assert rids[0] == (0, 0)
        assert pages == [3] * 5
        assert list(hashed.lookup(599)) == [rids[599]]

    def test_counts_only_live_rows(self):
        table, *__ = wide_table()
        rids = table.insert_many([(i, str(i)) for i in range(10)])
        table.delete(rids[4])
        assert table.truncate() == 9
        assert table.live_rows == 0

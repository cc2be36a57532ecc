"""Tests for INSERT / UPDATE / DELETE / DDL execution."""

import pytest

from repro.relational import Database
from repro.relational.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    TypeMismatchError,
)
from tests.crashkit import crash_copy


class TestInsert:
    def test_insert_values(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b STRING)")
        result = db.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
        assert result.rowcount == 2

    def test_insert_column_list_fills_nulls(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b STRING, c DOUBLE)")
        db.execute("INSERT INTO t (c, a) VALUES (2.5, 1)")
        assert db.execute("SELECT a, b, c FROM t").rows == [(1, None, 2.5)]

    def test_insert_select(self, db):
        db.execute("CREATE TABLE src (a INTEGER)")
        db.execute("CREATE TABLE dst (a INTEGER)")
        db.execute("INSERT INTO src VALUES (1), (2), (3)")
        result = db.execute("INSERT INTO dst SELECT a * 10 FROM src WHERE a > 1")
        assert result.rowcount == 2
        assert sorted(db.execute("SELECT a FROM dst").rows) == [(20,), (30,)]

    def test_primary_key_violation(self, db):
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_insert_coerces_types(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b STRING)")
        db.execute("INSERT INTO t VALUES ('5', 9)")
        assert db.execute("SELECT a, b FROM t").rows == [(5, "9")]


    def test_insert_select_is_all_or_nothing(self, db):
        """Regression: a unique violation on row k used to leave rows
        1..k-1 behind in autocommit mode."""
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b INTEGER)")
        db.execute("CREATE INDEX t_b ON t (b) USING sorted")
        db.execute("CREATE TABLE u (a INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 10)")
        db.execute("INSERT INTO u VALUES (5), (1), (6)")
        table = db.table("t")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t SELECT a, a * 10 FROM u")
        assert db.execute("SELECT a, b FROM t").rows == [(1, 10)]
        assert table.live_rows == 1
        assert [len(index) for index in table.indexes.values()] == [1, 1]
        assert db.execute("SELECT a FROM t WHERE a = 5").rows == []
        assert db.execute("SELECT a FROM t WHERE b >= 50").rows == []
        # and the statement still works once the conflict is gone
        db.execute("DELETE FROM u WHERE a = 1")
        assert db.execute("INSERT INTO t SELECT a, a FROM u").rowcount == 2

    def test_insert_values_is_all_or_nothing(self, db):
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1), (2), (1)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_insert_select_with_column_list(self, db):
        db.execute("CREATE TABLE src (x INTEGER, y STRING)")
        db.execute("CREATE TABLE dst (a INTEGER, b STRING, c DOUBLE)")
        db.execute("INSERT INTO src VALUES (1, 'p'), (2, 'q')")
        db.execute("INSERT INTO dst (b, a) SELECT y, x FROM src")
        assert db.execute("SELECT a, b, c FROM dst").rows == [
            (1, "p", None), (2, "q", None),
        ]
        empty = db.execute("INSERT INTO dst (b, a) SELECT y, x FROM src "
                           "WHERE x > 9")
        assert empty.rowcount == 0

    def test_too_few_values_for_column_list(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BindError, match="2 columns but 1 values"):
            db.execute("INSERT INTO t (a, b) VALUES (1)")

    def test_too_many_values_for_column_list(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BindError, match="1 columns but 2 values"):
            db.execute("INSERT INTO t (a) VALUES (1, 2)")

    def test_unknown_column_in_column_list(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BindError, match="zz"):
            db.execute("INSERT INTO t (a, zz) VALUES (1, 2)")
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 0

    def test_repeated_column_in_column_list(self, db):
        db.execute("CREATE TABLE t (a INTEGER, b INTEGER)")
        with pytest.raises(BindError, match="'a' more than once"):
            db.execute("INSERT INTO t (a, A) VALUES (1, 2)")


class TestUpdate:
    def test_update_with_where(self, people_db):
        result = people_db.execute(
            "UPDATE people SET city = 'lyon' WHERE city = 'paris'"
        )
        assert result.rowcount == 2
        assert people_db.execute(
            "SELECT COUNT(*) FROM people WHERE city = 'lyon'"
        ).scalar() == 2

    def test_update_expression_uses_old_row(self, people_db):
        people_db.execute("UPDATE people SET age = age + 1 WHERE id = 1")
        assert people_db.execute(
            "SELECT age FROM people WHERE id = 1"
        ).scalar() == 35

    def test_update_all_rows(self, people_db):
        result = people_db.execute("UPDATE people SET age = 0")
        assert result.rowcount == 5

    def test_update_via_index_point_lookup(self, people_db):
        # id is the primary key; the point update should not scan
        result = people_db.execute("UPDATE people SET name = 'X' WHERE id = 3")
        assert result.rowcount == 1

    def test_update_maintains_indexes(self, people_db):
        people_db.execute("CREATE INDEX ix_age ON people (age)")
        people_db.execute("UPDATE people SET age = 99 WHERE id = 1")
        assert people_db.execute(
            "SELECT name FROM people WHERE age = 99"
        ).rows == [("alice",)]


class TestDmlAccessPaths:
    """UPDATE and DELETE find their rows through the access-path chooser
    SELECT uses, so IN lists, ranges and prefix LIKE reach an index."""

    @staticmethod
    def make_db():
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, k INTEGER, s STRING)")
        for i in range(20):
            db.execute("INSERT INTO t VALUES (?, ?, ?)", [i, i, f"n{i:02d}"])
        db.execute("CREATE INDEX t_k ON t (k) USING sorted")
        db.execute("CREATE INDEX t_s ON t (s) USING sorted")
        return db

    def test_delete_in_list_probes_index(self):
        db = self.make_db()
        index = db.table("t").indexes["t_k"]
        probes = index.probes
        result = db.execute("DELETE FROM t WHERE k IN (3, 5, 5, 99)")
        assert result.rowcount == 2
        assert index.probes == probes + 3  # one probe per distinct key
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 18

    def test_update_range_scans_sorted_index(self):
        db = self.make_db()
        index = db.table("t").indexes["t_k"]
        scans = index.range_scans
        result = db.execute("UPDATE t SET s = 'x' WHERE k >= ?", [15])
        assert result.rowcount == 5
        assert index.range_scans == scans + 1
        assert db.execute(
            "SELECT COUNT(*) FROM t WHERE s = 'x'"
        ).scalar() == 5

    def test_delete_prefix_like_range_scans_sorted_index(self):
        db = self.make_db()
        index = db.table("t").indexes["t_s"]
        scans = index.range_scans
        assert db.execute("DELETE FROM t WHERE s LIKE 'n1%'").rowcount == 10
        assert index.range_scans == scans + 1
        assert db.execute("SELECT MAX(k) FROM t").scalar() == 9

    def test_update_of_range_key_changes_each_row_once(self):
        """Halloween guard: the rows the range scan finds are collected
        before any moves further up the same index."""
        db = self.make_db()
        index = db.table("t").indexes["t_k"]
        scans = index.range_scans
        result = db.execute("UPDATE t SET k = k + 100 WHERE k >= 5")
        assert result.rowcount == 15
        assert index.range_scans == scans + 1
        assert sorted(db.execute("SELECT k FROM t").column()) == (
            list(range(5)) + list(range(105, 120))
        )

    def test_where_without_column_reference(self):
        """A conjunct that names no column (a parameter, an IN subquery
        over a constant, a CASE) has no index to match and filters every
        row."""
        db = self.make_db()
        db.execute("CREATE TABLE b (y INTEGER)")
        assert db.execute("DELETE FROM t WHERE ? IS NOT NULL", [None]).rowcount == 0
        assert db.execute("UPDATE t SET k = 1 WHERE ? IN (1, 2)", [3]).rowcount == 0
        assert db.execute(
            "UPDATE t SET s = 'c' WHERE CASE WHEN ? > 0 THEN 1 END IN (1)", [1]
        ).rowcount == 20
        assert db.execute(
            "DELETE FROM t WHERE 1 IN (SELECT y FROM b)"
        ).rowcount == 0
        db.execute("INSERT INTO b VALUES (1)")
        assert db.execute(
            "DELETE FROM t WHERE 1 IN (SELECT y FROM b) AND k < 5"
        ).rowcount == 5
        assert db.execute("UPDATE t SET k = 1 WHERE ? IN (1, 2)", [2]).rowcount == 15
        assert db.execute("DELETE FROM t WHERE ? IS NOT NULL", [0]).rowcount == 15


class TestUpdateIsAllOrNothing:
    """An UPDATE that raises changes nothing: no row, no index entry, in
    memory, inside a rolled-back transaction, and after a durable store is
    reopened from its snapshot or recovered from its log."""

    @staticmethod
    def unique_clash(db):
        """Row 1 moves to key 11 first; row 2's new key, 12, is held."""
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (12, 0)")
        with pytest.raises(ConstraintError, match="12"):
            db.execute("UPDATE t SET id = id + 10 WHERE id < 5")

    @staticmethod
    def assert_clash_undone(db):
        assert sorted(db.execute("SELECT id, v FROM t").rows) == [
            (1, 0), (2, 0), (12, 0),
        ]
        assert db.execute("SELECT v FROM t WHERE id = 2").rows == [(0,)]
        assert db.execute("SELECT v FROM t WHERE id = 11").rows == []
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (2, 9)")

    @staticmethod
    def late_type_error(db):
        """2,053 rows; only the last one's SET raises, in the third
        1,024-row block."""
        db.execute("CREATE TABLE w (id INTEGER PRIMARY KEY, v INTEGER, "
                   "s STRING)")
        db.execute("INSERT INTO w VALUES " + ", ".join(
            f"({i}, {i}, NULL)" for i in range(2052)
        ) + ", (2052, 2052, 'x')")
        with pytest.raises(TypeMismatchError):
            db.execute("UPDATE w SET v = v + COALESCE(s, 0) + 1")

    @staticmethod
    def assert_type_error_undone(db):
        assert db.execute(
            "SELECT COUNT(*) FROM w WHERE v <> id"
        ).scalar() == 0

    CASES = [
        (unique_clash, assert_clash_undone),
        (late_type_error, assert_type_error_undone),
    ]

    @pytest.mark.parametrize("run, check", CASES)
    def test_in_memory(self, run, check):
        db = Database()
        run(db)
        check(db)

    def test_unique_clash_inside_a_rolled_back_transaction(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (12, 0)")
        with pytest.raises(ConstraintError):
            with db.transaction():
                db.execute("UPDATE t SET v = 5 WHERE id = 12")
                db.execute("UPDATE t SET id = id + 10 WHERE id < 5")
        self.assert_clash_undone(db)

    def test_unique_clash_in_a_transaction_that_commits(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        db.execute("INSERT INTO t VALUES (1, 0), (2, 0), (12, 0)")
        with db.transaction():
            with pytest.raises(ConstraintError):
                db.execute("UPDATE t SET id = id + 10 WHERE id < 5")
        self.assert_clash_undone(db)

    @pytest.mark.parametrize("run, check", CASES)
    def test_durable_reopen_and_log_recovery(self, tmp_path, run, check):
        path = str(tmp_path / "db")
        db = Database(path=path, wal_fsync="always")
        run(db)
        # recovery from the log alone: the snapshot predates the UPDATE
        recovered = Database(
            path=crash_copy(path, str(tmp_path / "crashed"))
        )
        check(recovered)
        recovered.close()
        db.close()
        reopened = Database(path=path)
        check(reopened)
        reopened.close()


class TestDelete:
    def test_delete_with_where(self, people_db):
        result = people_db.execute("DELETE FROM people WHERE age < 28")
        assert result.rowcount == 1
        assert people_db.execute("SELECT COUNT(*) FROM people").scalar() == 4

    def test_delete_all(self, people_db):
        result = people_db.execute("DELETE FROM orders")
        assert result.rowcount == 6
        assert people_db.execute("SELECT COUNT(*) FROM orders").scalar() == 0

    def test_delete_all_reclaims_pages_and_indexes(self, people_db):
        people_db.execute("CREATE INDEX orders_amount ON orders (amount) "
                          "USING sorted")
        orders = people_db.table("orders")
        people_db.execute("DELETE FROM orders")
        assert orders.page_count == 0
        assert all(len(index) == 0 for index in orders.indexes.values())
        assert people_db.execute("DELETE FROM orders").rowcount == 0
        people_db.execute("INSERT INTO orders VALUES (1, 1, 5.0, 'ink')")
        assert people_db.execute(
            "SELECT oid FROM orders WHERE amount >= 1"
        ).rows == [(1,)]

    def test_delete_then_insert(self, people_db):
        people_db.execute("DELETE FROM people WHERE id = 1")
        people_db.execute(
            "INSERT INTO people VALUES (1, 'anna', 30, 'rome')"
        )
        assert people_db.execute(
            "SELECT name FROM people WHERE id = 1"
        ).rows == [("anna",)]


class TestDdl:
    def test_create_drop(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("DROP TABLE t")
        with pytest.raises(BindError):
            db.execute("SELECT * FROM t")

    def test_create_duplicate_rejected(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        with pytest.raises(CatalogError):
            db.execute("CREATE TABLE t (a INTEGER)")

    def test_create_if_not_exists(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE TABLE IF NOT EXISTS t (a INTEGER)")

    def test_drop_missing_rejected(self, db):
        with pytest.raises(BindError):
            db.execute("DROP TABLE t")

    def test_drop_if_exists(self, db):
        db.execute("DROP TABLE IF EXISTS t")

    def test_create_index_populates(self, people_db):
        people_db.execute("CREATE INDEX ix ON people (city)")
        table = people_db.table("people")
        index = table.find_index("col(city)")
        assert index is not None
        assert list(index.lookup("london"))

    def test_create_expression_index(self, db):
        db.execute("CREATE TABLE docs (id INTEGER, body JSON)")
        db.execute("INSERT INTO docs VALUES (?, ?)", [1, {"k": "v"}])
        db.execute("CREATE INDEX ix ON docs (JSON_VAL(body, 'k'))")
        index = db.table("docs").find_index("json_val(col(body),'k')")
        assert index is not None
        assert list(index.lookup("v"))

    def test_unique_index_enforced(self, db):
        db.execute("CREATE TABLE t (a INTEGER)")
        db.execute("CREATE UNIQUE INDEX ix ON t (a)")
        db.execute("INSERT INTO t VALUES (1)")
        with pytest.raises(ConstraintError):
            db.execute("INSERT INTO t VALUES (1)")

    def test_sorted_index_supports_range(self, people_db):
        people_db.execute("CREATE INDEX ix ON people (age) USING sorted")
        result = people_db.execute("SELECT name FROM people WHERE age > 30")
        assert sorted(result.rows) == [("alice",), ("carol",)]

"""End-to-end SELECT execution tests over the engine."""

import pytest

from repro.relational import Database
from repro.relational.errors import BindError, SqlSyntaxError


def rows(db, sql, params=None):
    return db.execute(sql, params).rows


def rejects(db, sql, construct):
    """*sql* uses a construct outside the dialect: the parser names it."""
    with pytest.raises(SqlSyntaxError, match=construct):
        db.execute(sql)


class TestProjectionAndFilter:
    def test_select_columns(self, people_db):
        result = rows(people_db, "SELECT name FROM people WHERE age > 30")
        assert sorted(result) == [("alice",), ("carol",)]

    def test_select_star(self, people_db):
        result = rows(people_db, "SELECT * FROM people WHERE id = 1")
        assert result == [(1, "alice", 34, "paris")]

    def test_expression_projection(self, people_db):
        result = rows(people_db, "SELECT age * 2 + 1 FROM people WHERE id = 2")
        assert result == [(57,)]

    def test_aliases_in_output(self, people_db):
        result = people_db.execute("SELECT name AS who FROM people WHERE id = 1")
        assert result.columns == ["who"]

    def test_where_null_is_false(self, people_db):
        result = rows(people_db, "SELECT id FROM people WHERE city = 'oslo'")
        assert result == []
        # dan has NULL city: excluded from both sides
        result = rows(people_db, "SELECT id FROM people WHERE city <> 'paris'")
        assert sorted(result) == [(2,), (5,)]

    def test_is_null_filter(self, people_db):
        result = rows(people_db, "SELECT id FROM people WHERE city IS NULL")
        assert result == [(4,)]

    def test_like_filter(self, people_db):
        result = rows(people_db, "SELECT name FROM people WHERE name LIKE '%a%'")
        assert sorted(result) == [("alice",), ("carol",), ("dan",)]

    def test_in_list(self, people_db):
        result = rows(people_db, "SELECT id FROM people WHERE id IN (1, 3, 9)")
        assert sorted(result) == [(1,), (3,)]

    def test_between(self, people_db):
        result = rows(
            people_db, "SELECT id FROM people WHERE age BETWEEN 28 AND 34"
        )
        assert sorted(result) == [(1,), (2,), (5,)]

    def test_parameters(self, people_db):
        result = rows(
            people_db, "SELECT name FROM people WHERE age = ? AND city = ?",
            [28, "london"],
        )
        assert result == [("bob",)]

    def test_no_from(self, db):
        assert rows(db, "SELECT 1 + 2, 'x'") == [(3, "x")]

    def test_unknown_column_raises(self, people_db):
        with pytest.raises(BindError):
            people_db.execute("SELECT nosuch FROM people")

    def test_unknown_table_raises(self, people_db):
        with pytest.raises(BindError):
            people_db.execute("SELECT 1 FROM nosuch")


class TestJoins:
    def test_inner_join(self, people_db):
        result = rows(
            people_db,
            "SELECT p.name, o.item FROM people p, orders o "
            "WHERE p.id = o.pid AND o.amount > 20",
        )
        assert sorted(result) == [("alice", "book"), ("bob", "chair"),
                                  ("eve", "lamp")]

    def test_explicit_join_syntax(self, people_db):
        result = rows(
            people_db,
            "SELECT p.name FROM people p JOIN orders o ON p.id = o.pid "
            "WHERE o.item = 'pen'",
        )
        assert sorted(result) == [("alice",), ("eve",)]

    def test_left_outer_join(self, people_db):
        result = rows(
            people_db,
            "SELECT p.id, o.oid FROM people p LEFT OUTER JOIN orders o "
            "ON p.id = o.pid ORDER BY p.id",
        )
        ids = [row[0] for row in result]
        assert 4 in ids  # dan has no orders but appears
        dan_rows = [row for row in result if row[0] == 4]
        assert dan_rows == [(4, None)]

    def test_left_join_with_residual(self, people_db):
        result = rows(
            people_db,
            "SELECT p.id, o.oid FROM people p LEFT OUTER JOIN orders o "
            "ON p.id = o.pid AND o.amount > 100",
        )
        matched = [row for row in result if row[1] is not None]
        assert matched == [(2, 12)]
        assert len(result) == 5  # every person appears

    def test_three_way_join(self, people_db):
        people_db.execute("CREATE TABLE cities (name STRING, country STRING)")
        people_db.execute(
            "INSERT INTO cities VALUES ('paris', 'fr'), ('london', 'uk')"
        )
        result = rows(
            people_db,
            "SELECT DISTINCT c.country FROM people p, orders o, cities c "
            "WHERE p.id = o.pid AND p.city = c.name",
        )
        assert sorted(result) == [("fr",), ("uk",)]

    def test_self_join(self, people_db):
        result = rows(
            people_db,
            "SELECT a.name, b.name FROM people a, people b "
            "WHERE a.age = b.age AND a.id < b.id",
        )
        assert result == [("bob", "eve")]

    def test_cross_join_when_no_condition(self, people_db):
        """Every join needs an equality between its sides."""
        for sql in (
            "SELECT COUNT(*) FROM people p, orders o",
            "SELECT COUNT(*) FROM people p CROSS JOIN orders o",
            "SELECT COUNT(*) FROM people p, orders o WHERE p.id < o.pid",
        ):
            with pytest.raises(BindError, match="no equality"):
                people_db.execute(sql)

    def test_ambiguous_column_raises(self, people_db):
        people_db.execute("CREATE TABLE dup (name STRING)")
        people_db.execute("INSERT INTO dup VALUES ('x')")
        with pytest.raises(BindError):
            people_db.execute("SELECT name FROM people, dup")


class TestAggregates:
    def test_global_aggregates(self, people_db):
        result = rows(
            people_db,
            "SELECT COUNT(*), SUM(age), MIN(age), MAX(age), AVG(age) FROM people",
        )
        assert result == [(5, 154, 23, 41, 30.8)]

    def test_count_column_skips_nulls(self, people_db):
        assert rows(people_db, "SELECT COUNT(city) FROM people") == [(4,)]

    def test_count_distinct(self, people_db):
        assert rows(people_db, "SELECT COUNT(DISTINCT city) FROM people") == [(3,)]

    def test_group_by(self, people_db):
        result = rows(
            people_db,
            "SELECT city, COUNT(*) FROM people WHERE city IS NOT NULL "
            "GROUP BY city ORDER BY city",
        )
        assert result == [("berlin", 1), ("london", 1), ("paris", 2)]

    def test_group_by_expression_in_select(self, people_db):
        result = rows(
            people_db,
            "SELECT age / 10, COUNT(*) FROM people GROUP BY age / 10 "
            "ORDER BY 1",
        )
        assert result == [(2.3, 1), (2.8, 2), (3.4, 1), (4.1, 1)]

    def test_having(self, people_db):
        """HAVING is refused; a CTE filtered by WHERE says the same."""
        rejects(
            people_db,
            "SELECT pid, SUM(amount) FROM orders GROUP BY pid "
            "HAVING SUM(amount) > 30 ORDER BY pid",
            "HAVING",
        )
        result = rows(
            people_db,
            "WITH s AS (SELECT pid, SUM(amount) AS total FROM orders "
            "GROUP BY pid) SELECT pid, total FROM s WHERE total > 30 "
            "ORDER BY pid",
        )
        assert result == [(1, 39.0), (2, 120.0), (5, 35.0)]

    def test_aggregate_on_empty_input(self, people_db):
        result = rows(
            people_db, "SELECT COUNT(*), SUM(age) FROM people WHERE id > 99"
        )
        assert result == [(0, None)]

    def test_group_aggregate_mixed_expression(self, people_db):
        result = rows(
            people_db,
            "SELECT city, MAX(age) - MIN(age) FROM people "
            "WHERE city = 'paris' GROUP BY city",
        )
        assert result == [("paris", 7)]


class TestSetOpsDistinctOrder:
    def test_union_all(self, people_db):
        result = rows(
            people_db,
            "SELECT id FROM people WHERE id <= 2 "
            "UNION ALL SELECT id FROM people WHERE id <= 1",
        )
        assert sorted(result) == [(1,), (1,), (2,)]

    def test_union_distinct(self, people_db):
        result = rows(
            people_db,
            "SELECT city FROM people UNION SELECT 'oslo'",
        )
        assert len(result) == len(set(result))
        assert ("oslo",) in result

    def test_intersect(self, people_db):
        """INTERSECT is refused; IN (SELECT ...) says the same."""
        rejects(
            people_db,
            "SELECT id FROM people INTERSECT SELECT pid FROM orders",
            "INTERSECT",
        )
        result = rows(
            people_db,
            "SELECT DISTINCT id FROM people WHERE id IN "
            "(SELECT pid FROM orders)",
        )
        assert sorted(result) == [(1,), (2,), (3,), (5,)]

    def test_except(self, people_db):
        """EXCEPT is refused; NOT IN (SELECT ...) says the same."""
        rejects(
            people_db,
            "SELECT id FROM people EXCEPT SELECT pid FROM orders",
            "EXCEPT",
        )
        result = rows(
            people_db,
            "SELECT DISTINCT id FROM people WHERE id NOT IN "
            "(SELECT pid FROM orders)",
        )
        assert result == [(4,)]

    def test_distinct(self, people_db):
        result = rows(people_db, "SELECT DISTINCT item FROM orders")
        assert len(result) == 4

    def test_order_by_multiple_keys(self, people_db):
        result = rows(
            people_db, "SELECT age, name FROM people ORDER BY age DESC, name"
        )
        assert result[0] == (41, "carol")
        assert result[1] == (34, "alice")
        assert result[2] == (28, "bob")

    def test_order_by_position(self, people_db):
        result = rows(people_db, "SELECT name FROM people ORDER BY 1 DESC")
        assert result[0] == ("eve",)

    def test_limit_offset(self, people_db):
        result = rows(
            people_db, "SELECT id FROM people ORDER BY id LIMIT 2 OFFSET 1"
        )
        assert result == [(2,), (3,)]


class TestSubqueries:
    def test_in_subquery(self, people_db):
        result = rows(
            people_db,
            "SELECT name FROM people WHERE id IN "
            "(SELECT pid FROM orders WHERE item = 'book')",
        )
        assert sorted(result) == [("alice",), ("carol",)]

    def test_not_in_subquery(self, people_db):
        result = rows(
            people_db,
            "SELECT name FROM people WHERE id NOT IN (SELECT pid FROM orders)",
        )
        assert result == [("dan",)]

    def test_scalar_subquery(self, people_db):
        """A subquery used as a value is refused; IN (SELECT ...) says
        the same."""
        rejects(
            people_db,
            "SELECT name FROM people WHERE age = (SELECT MAX(age) FROM people)",
            "scalar subquery",
        )
        result = rows(
            people_db,
            "SELECT name FROM people WHERE age IN (SELECT MAX(age) FROM people)",
        )
        assert result == [("carol",)]

    def test_exists(self, people_db):
        """EXISTS is refused; a constant IN (SELECT ...) says the same."""
        rejects(
            people_db,
            "SELECT COUNT(*) FROM people WHERE EXISTS "
            "(SELECT 1 FROM orders WHERE amount > 100)",
            "EXISTS",
        )
        result = rows(
            people_db,
            "SELECT COUNT(*) FROM people WHERE 1 IN "
            "(SELECT 1 FROM orders WHERE amount > 100)",
        )
        assert result == [(5,)]

    def test_from_subquery(self, people_db):
        """A derived table is refused; a CTE says the same."""
        rejects(
            people_db,
            "SELECT s.c FROM (SELECT city AS c, COUNT(*) AS n FROM people "
            "GROUP BY city) AS s WHERE s.n = 2",
            "derived table",
        )
        result = rows(
            people_db,
            "WITH s AS (SELECT city AS c, COUNT(*) AS n FROM people "
            "GROUP BY city) SELECT s.c FROM s WHERE s.n = 2",
        )
        assert result == [("paris",)]


class TestUnnestValues:
    def test_lateral_unnest(self, db):
        db.execute("CREATE TABLE m (a INTEGER, b INTEGER, c INTEGER)")
        db.execute("INSERT INTO m VALUES (1, 2, NULL), (4, NULL, 6)")
        result = rows(
            db,
            "SELECT t.val FROM m p, TABLE(VALUES (p.a), (p.b), (p.c)) "
            "AS t(val) WHERE t.val IS NOT NULL",
        )
        assert sorted(result) == [(1,), (2,), (4,), (6,)]

    def test_multi_column_unnest(self, db):
        db.execute("CREATE TABLE m (a INTEGER, l1 STRING, b INTEGER, l2 STRING)")
        db.execute("INSERT INTO m VALUES (1, 'x', 2, 'y')")
        result = rows(
            db,
            "SELECT t.lbl, t.val FROM m p, "
            "TABLE(VALUES (p.l1, p.a), (p.l2, p.b)) AS t(lbl, val)",
        )
        assert sorted(result) == [("x", 1), ("y", 2)]

    def test_unnest_requires_preceding_relation(self, db):
        db.execute("CREATE TABLE m (a INTEGER)")
        with pytest.raises(BindError):
            db.execute("SELECT t.val FROM TABLE(VALUES (1)) AS t(val)")


class TestJsonQueries:
    def test_json_val_filter(self, db):
        db.execute("CREATE TABLE docs (id INTEGER, body JSON)")
        db.execute("INSERT INTO docs VALUES (?, ?)", [1, {"name": "x", "n": 3}])
        db.execute("INSERT INTO docs VALUES (?, ?)", [2, {"name": "y"}])
        result = rows(
            db, "SELECT id FROM docs WHERE JSON_VAL(body, 'n') IS NOT NULL"
        )
        assert result == [(1,)]
        result = rows(
            db, "SELECT JSON_VAL(body, 'name') FROM docs ORDER BY id"
        )
        assert result == [("x",), ("y",)]

"""Differential testing of the relational engine against SQLite.

SQLite serves as a semantics oracle for the SQL subset both systems share:
projections, predicates (3VL, LIKE, IN, BETWEEN), equi joins, grouping,
aggregates, UNION / UNION ALL, ordering, CTEs and recursive CTEs: the
engine's kept surface (``tests/test_engine_surface.py`` checks that the
pools stay inside it).  Randomized
tables are loaded into both engines and each query must return the same
multiset of rows.

Known dialect differences handled by the harness:

* our engine returns ``True``/``False`` for boolean expressions where
  SQLite returns 1/0 — compared numerically;
* integer division: ours returns floats for inexact division (SQLite
  truncates), so the pool avoids bare ``/`` between integers;
* LIKE is case-sensitive in our engine, case-insensitive in SQLite for
  ASCII — patterns in the pool use lowercase text only;
* JSON cells are lists/dicts in our engine and canonical JSON text in
  SQLite — compared as that text.
"""

import json
import random
import sqlite3

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.relational import Database

QUERIES = [
    "SELECT a, b FROM t WHERE a > 3",
    "SELECT a + b * 2 FROM t",
    "SELECT a FROM t WHERE b IS NULL",
    "SELECT a FROM t WHERE b IS NOT NULL AND a < 5",
    "SELECT a FROM t WHERE s LIKE 'x%'",
    "SELECT a FROM t WHERE s LIKE '%3%'",
    "SELECT a FROM t WHERE a IN (1, 2, 3)",
    "SELECT a FROM t WHERE a NOT IN (SELECT a FROM u)",
    "SELECT a FROM t WHERE a BETWEEN 2 AND 6",
    "SELECT DISTINCT b FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(b), SUM(a), MIN(a), MAX(b) FROM t",
    "SELECT b, COUNT(*) FROM t GROUP BY b",
    "SELECT t.a, u.c FROM t, u WHERE t.a = u.a",
    "SELECT t.a, u.c FROM t LEFT OUTER JOIN u ON t.a = u.a",
    "SELECT t.a FROM t JOIN u ON t.a = u.a WHERE u.c > 2",
    "SELECT a FROM t UNION SELECT a FROM u",
    "SELECT a FROM t UNION ALL SELECT a FROM u",
    "SELECT a FROM t ORDER BY a DESC LIMIT 3",
    "SELECT a, b FROM t ORDER BY b, a LIMIT 4 OFFSET 1",
    "SELECT CASE WHEN a > 3 THEN 'hi' ELSE 'lo' END FROM t",
    "SELECT a FROM t WHERE NOT (a > 3 AND b IS NOT NULL)",
    "WITH big AS (SELECT a FROM t WHERE a > 2) "
    "SELECT COUNT(*) FROM big",
    "WITH x AS (SELECT a FROM t), y AS (SELECT a FROM x WHERE a < 5) "
    "SELECT * FROM y",
    "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n + 1 FROM r "
    "WHERE n < 7) SELECT SUM(n) FROM r",
    "SELECT u.c, COUNT(*) FROM t, u WHERE t.b = u.a GROUP BY u.c",
    "SELECT ABS(a - 4) FROM t ORDER BY 1",
    "SELECT a % 3, COUNT(*) FROM t GROUP BY a % 3",
    # joins + aggregation
    "SELECT t.b, COUNT(u.c) FROM t LEFT OUTER JOIN u ON t.a = u.a GROUP BY t.b",
    "SELECT MAX(u.c) FROM t, u WHERE t.a = u.a AND t.b IS NOT NULL",
    "SELECT t.a FROM t JOIN u ON t.a = u.a JOIN u v ON u.c = v.c",
    # nested and correlated-free subqueries
    "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE c IN "
    "(SELECT b FROM t WHERE b IS NOT NULL))",
    "WITH s AS (SELECT a, COUNT(*) AS n FROM t GROUP BY a) "
    "SELECT a FROM s WHERE s.n > 1",
    # expression corners
    "SELECT CASE WHEN b IS NULL THEN -1 WHEN b > 2 THEN b ELSE 0 END FROM t",
    "SELECT a FROM t WHERE (a > 2 AND a < 7) OR s = 'zz'",
    "SELECT COALESCE(b, a, 99) FROM t",
    "SELECT a * 1.5 FROM t WHERE a BETWEEN 1 AND 4",
    "SELECT s || '!' FROM t WHERE s IS NOT NULL",
    # set ops composed with the rest
    "SELECT a FROM t WHERE b IS NULL UNION SELECT a FROM u WHERE c > 3",
    "WITH s AS (SELECT a FROM t UNION SELECT a FROM u) SELECT COUNT(*) FROM s",
    # UNION over rows holding NULLs (NULLs are not distinct)
    "SELECT b, s FROM t UNION SELECT b, s FROM t WHERE a > 4",
    # distinct / ordering interplay
    "SELECT DISTINCT a, b FROM t ORDER BY a DESC, b LIMIT 5",
    "SELECT DISTINCT s FROM t WHERE s LIKE '_2%'",
    # aggregates over expressions
    "SELECT SUM(a + COALESCE(b, 0)) FROM t",
    "SELECT MIN(s), MAX(s) FROM t",
    # recursive CTE joined to data
    "WITH RECURSIVE r(n) AS (SELECT 0 UNION ALL SELECT n + 1 FROM r "
    "WHERE n < 8) SELECT COUNT(*) FROM r, t WHERE r.n = t.a",
    # grouped-aggregate kernel corners: NULL group keys and NULL inputs
    "SELECT b, COUNT(*), COUNT(b), SUM(b), MIN(s), MAX(s) FROM t GROUP BY b",
    "SELECT s, b, COUNT(*), COUNT(s), MIN(b) FROM t GROUP BY s, b",
    # ... mixed int/float inputs to SUM / MIN / MAX
    "SELECT b, SUM(CASE WHEN a > 4 THEN a * 0.5 ELSE a END), "
    "MIN(CASE WHEN a > 4 THEN a * 0.5 ELSE a END), "
    "MAX(CASE WHEN a < 4 THEN a * 1.5 ELSE a END) FROM t GROUP BY b",
    "SELECT SUM(CASE WHEN a > 4 THEN a * 0.5 ELSE a END), "
    "MIN(CASE WHEN a > 4 THEN 4.5 ELSE a END), MAX(a * 1.0) FROM t",
    # ... COUNT(DISTINCT) and AVG, also over groups whose inputs are all NULL
    "SELECT s, COUNT(DISTINCT b), AVG(b), COUNT(DISTINCT a) FROM t GROUP BY s",
    "SELECT a % 2, COUNT(DISTINCT s), SUM(DISTINCT b), AVG(a) FROM t "
    "GROUP BY a % 2",
    # ... a global aggregate over empty input still yields its one row
    "SELECT COUNT(*), COUNT(b), SUM(a), AVG(a), MIN(s), MAX(a), "
    "COUNT(DISTINCT a) FROM t WHERE a > 100",
    "SELECT b, COUNT(*) FROM t WHERE a > 100 GROUP BY b",
    # ... unhashable JSON cells (lists / dicts) as group keys
    "SELECT j, COUNT(*), SUM(a), MIN(b) FROM t GROUP BY j",
    "SELECT j, s, COUNT(DISTINCT a), MAX(a) FROM t GROUP BY j, s",
    # star projection, also through a CTE
    "SELECT * FROM t WHERE s = 'x1'",
    "WITH x AS (SELECT * FROM t WHERE s LIKE 'x%') "
    "SELECT a FROM x WHERE b > 1",
    # ORDER BY keys that are not projected (the sort runs beneath the
    # projection), alone and mixed with an output alias
    "SELECT s FROM t ORDER BY a DESC, s LIMIT 3",
    "SELECT s FROM t ORDER BY a, s LIMIT 2 OFFSET 1",
    "SELECT s AS label FROM t ORDER BY label DESC, a LIMIT 4",
    # equi join with a residual, applied inside the probe loop: hash join
    # here, index nested loop once test_indexes_do_not_change_results has
    # indexed u.a; inner and left outer (padding after the residual)
    "SELECT t.a, t.b, u.c FROM t JOIN u ON t.a = u.a AND t.b < u.c",
    "SELECT t.a, t.b, u.c FROM t LEFT OUTER JOIN u "
    "ON t.a = u.a AND t.b < u.c",
    "SELECT t.a, u.c FROM t, u WHERE t.a = u.a AND t.b + u.c > 4",
    # ORDER BY over NULLs and over mixed int/float keys
    "SELECT b, a FROM t ORDER BY b DESC, a LIMIT 5",
    "SELECT b, a FROM t ORDER BY b, a DESC LIMIT 5",
    "SELECT CASE WHEN a > 4 THEN a * 0.5 ELSE a END AS x, a FROM t "
    "ORDER BY x, a LIMIT 6",
    # LIMIT over a join whose every probe row fans out past BATCH_SIZE
    # (12 rows cubed on each side, all on one key)
    "WITH x AS (SELECT 0 AS k FROM t a JOIN t b ON a.a * 0 = b.a * 0 "
    "JOIN t c ON b.a * 0 = c.a * 0) "
    "SELECT x.k FROM x, x y WHERE x.k = y.k LIMIT 1100 OFFSET 7",
]

#: parameterized writes, each run with two bindings in turn: the second
#: run re-opens the statement's cached plan.  WHERE shapes: ``=``, ``IN``,
#: ranges, prefix ``LIKE``, ``IN (SELECT ...)``, a conjunct naming no
#: column; SET shapes: constants, expressions of the old row, a CASE
#: over ``IN (SELECT ...)``.  The INSERT and the UPDATE of ``u`` change what the
#: subqueries read between executions.
DML = [
    ("UPDATE t SET b = ? WHERE a = ?", ([7, 3], [None, 5])),
    ("DELETE FROM t WHERE a = ?", ([2], [8])),
    ("UPDATE t SET b = b + ? WHERE a IN (?, ?, ?)",
     ([1, 1, 4, 6], [2, 0, 0, 7])),
    ("UPDATE t SET b = a * ? WHERE a >= ? AND a < ?",
     ([2, 3, 6], [-1, 0, 2])),
    ("UPDATE t SET s = ? WHERE s LIKE 'x%'", (["x7"], ["y9"])),
    ("UPDATE t SET b = ? WHERE a IN (SELECT a FROM u WHERE c > ?)",
     ([9, 2], [None, 4])),
    ("INSERT INTO u VALUES (?, ?)", ([1, 5], [6, 0])),
    ("UPDATE t SET b = CASE WHEN ? IN (SELECT c FROM u) THEN a ELSE 0 END "
     "WHERE a < ?", ([1, 4], [6, 9])),
    ("UPDATE u SET c = c + ? WHERE a <= ?", ([1, 3], [2, 8])),
    ("UPDATE t SET b = ? WHERE ? IS NULL", ([5, 1], [6, None])),
    ("DELETE FROM t WHERE a IN (SELECT a FROM u WHERE c = ?)", ([2], [3])),
    ("DELETE FROM t WHERE s LIKE 'x2%' OR a > ?", ([7], [5])),
    ("DELETE FROM t WHERE a IN (?, ?) AND ? IS NULL",
     ([1, 4, 0], [1, 4, None])),
]


def _random_rows(rng, count):
    rows = []
    for i in range(count):
        a = rng.randrange(0, 9)
        b = rng.choice([None, 1, 2, 3, 4])
        s = rng.choice([None, "x1", "x23", "y3", "zz"])
        rows.append((a, b, s, _json_cell(a, b)))
    return rows


def _json_cell(a, b):
    """An unhashable JSON value (or NULL) derived from the row, so it
    groups non-trivially without consuming the random stream."""
    if a % 4 == 0:
        return None
    return [a % 2, b] if a % 2 else {"k": b, "even": True}


def _json_text(value):
    return None if value is None else json.dumps(value, sort_keys=True)


def _build_pair(seed, t_rows=12, u_rows=8):
    rng = random.Random(seed)
    ours = Database()
    ours.execute("CREATE TABLE t (a INTEGER, b INTEGER, s STRING, j JSON)")
    ours.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
    theirs = sqlite3.connect(":memory:")
    theirs.execute("CREATE TABLE t (a INTEGER, b INTEGER, s TEXT, j TEXT)")
    theirs.execute("CREATE TABLE u (a INTEGER, c INTEGER)")
    for row in _random_rows(rng, t_rows):
        ours.execute("INSERT INTO t VALUES (?, ?, ?, ?)", list(row))
        theirs.execute(
            "INSERT INTO t VALUES (?, ?, ?, ?)",
            row[:3] + (_json_text(row[3]),),
        )
    for __ in range(u_rows):
        row = (rng.randrange(0, 9), rng.randrange(0, 6))
        ours.execute("INSERT INTO u VALUES (?, ?)", list(row))
        theirs.execute("INSERT INTO u VALUES (?, ?)", row)
    return ours, theirs


def _normalize(rows):
    out = []
    for row in rows:
        normalized = []
        for value in row:
            if isinstance(value, bool):
                value = int(value)
            if isinstance(value, float) and value.is_integer():
                value = int(value)
            if isinstance(value, (list, dict)):
                value = _json_text(value)  # SQLite holds JSON as text
            normalized.append(value)
        out.append(tuple(normalized))
    return sorted(out, key=repr)


def _compare(ours, theirs, query):
    mine = _normalize(ours.execute(query).rows)
    reference = _normalize(theirs.execute(query).fetchall())
    assert mine == reference, query
    # second run re-executes the cached prepared statement — results must
    # not drift
    again = _normalize(ours.execute(query).rows)
    assert again == reference, f"repeat execution diverged: {query}"


class TestAgainstSqlite:
    @pytest.mark.parametrize("seed", range(5))
    def test_query_pool(self, seed):
        ours, theirs = _build_pair(seed)
        for query in QUERIES:
            _compare(ours, theirs, query)

    def test_empty_tables(self):
        ours, theirs = _build_pair(0, t_rows=0, u_rows=0)
        for query in QUERIES:
            _compare(ours, theirs, query)

    def test_single_row(self):
        ours, theirs = _build_pair(3, t_rows=1, u_rows=1)
        for query in QUERIES:
            _compare(ours, theirs, query)

    def test_indexes_do_not_change_results(self):
        ours, theirs = _build_pair(7)
        _add_indexes(ours)
        for query in QUERIES:
            _compare(ours, theirs, query)

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_dml_pool(self, seed, indexed):
        ours, theirs = _build_pair(seed, t_rows=20, u_rows=10)
        if indexed:
            _add_indexes(ours)
        for sql, bindings in DML:
            for params in bindings:
                context = f"{sql} with {params}"
                assert ours.execute(sql, list(params)).rowcount == (
                    theirs.execute(sql, params).rowcount
                ), context
                for query in ("SELECT a, b, s, j FROM t",
                              "SELECT a, c FROM u"):
                    assert _normalize(ours.execute(query).rows) == (
                        _normalize(theirs.execute(query).fetchall())
                    ), context


def _add_indexes(ours):
    ours.execute("CREATE INDEX t_a ON t (a)")
    ours.execute("CREATE INDEX t_s ON t (s) USING sorted")
    ours.execute("CREATE INDEX u_a ON u (a)")


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    seed=st.integers(0, 100_000),
    t_rows=st.integers(0, 25),
    u_rows=st.integers(0, 15),
    query=st.sampled_from(QUERIES),
)
def test_property_sqlite_differential(seed, t_rows, u_rows, query):
    ours, theirs = _build_pair(seed, t_rows, u_rows)
    _compare(ours, theirs, query)

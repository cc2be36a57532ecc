"""Differential testing: planning from statistics vs the no-statistics
fallback.

Every query runs on two identical stores: one whose tables were ANALYZEd
and one that never ran ANALYZE, so its planner estimates with the
fallback constants.  With statistics the planner may pick different join
orders and access paths — but it must return the same *multiset* of rows
for every query.  Results are compared unordered (canonicalized by
``repr``) because a different join order legitimately permutes output
rows; queries with ORDER BY additionally assert the exact ordered result.

Corpus: the paper's Table 8 pipe matrix and Figure 7 examples over the
TinkerPop classic graph, and a pool of SQL shapes over a relational
fixture.
"""

import pytest

from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from repro.relational import Database
from tests.corpus import FIGURE7_EXAMPLES, TABLE8_MATRIX


def run_both(pair, run):
    """Call *run* on the ANALYZEd member of *pair* and on the one without
    statistics; return both results."""
    analyzed, plain = pair
    return run(analyzed), run(plain)


def canon(result):
    """Order-insensitive canonical form of a query result."""
    return sorted(repr(item) for item in result)


def _classic_store():
    store = SQLGraphStore()
    store.load_graph(tinkerpop_classic())
    store.create_attribute_index("vertex", "lang")
    return store


@pytest.fixture(scope="module")
def classic_stores():
    analyzed, plain = _classic_store(), _classic_store()
    analyzed.analyze_tables()
    return analyzed, plain


@pytest.mark.parametrize("pipe_name", sorted(TABLE8_MATRIX))
def test_table8_pipes_agree(classic_stores, pipe_name):
    text = TABLE8_MATRIX[pipe_name]
    costed, fallback = run_both(classic_stores, lambda store: store.run(text))
    assert canon(costed) == canon(fallback), text


@pytest.mark.parametrize("example", sorted(FIGURE7_EXAMPLES))
def test_figure7_examples_agree(classic_stores, example):
    text = FIGURE7_EXAMPLES[example]
    costed, fallback = run_both(classic_stores, lambda store: store.run(text))
    assert canon(costed) == canon(fallback), text


SQL_POOL = [
    "SELECT name FROM people WHERE age > 30",
    "SELECT * FROM people WHERE city = 'paris'",
    "SELECT id FROM people WHERE city IS NULL",
    "SELECT name FROM people WHERE name LIKE '%a%'",
    "SELECT name FROM people WHERE name LIKE 'a%'",
    "SELECT id FROM people WHERE id IN (1, 3, 9)",
    "SELECT DISTINCT city FROM people",
    "SELECT city, COUNT(*), SUM(age) FROM people GROUP BY city",
    "SELECT city, AVG(age) FROM people GROUP BY city",
    "WITH c AS (SELECT city, COUNT(*) AS n, AVG(age) AS a FROM people "
    "GROUP BY city) SELECT city, a FROM c WHERE n > 1",
    "SELECT p.name, o.item FROM people p, orders o WHERE p.id = o.pid",
    "SELECT p.name, o.item, s.carrier FROM people p, orders o, shipments s "
    "WHERE p.id = o.pid AND o.oid = s.oid",
    "SELECT p.name, o.item FROM people p LEFT JOIN orders o "
    "ON p.id = o.pid",
    "SELECT COUNT(*) FROM orders o, shipments s "
    "WHERE o.oid = s.oid AND o.amount > 20",
    "SELECT COUNT(*) FROM people",
    "SELECT age * 2 + 1 FROM people WHERE id = 2",
    "SELECT name FROM people WHERE age BETWEEN 28 AND 34",
    "WITH parisians AS (SELECT * FROM people WHERE city = 'paris') "
    "SELECT name FROM parisians WHERE age > 35",
    "SELECT name FROM people WHERE id IN (SELECT pid FROM orders)",
    "SELECT city FROM people WHERE city IS NOT NULL "
    "UNION SELECT item FROM orders WHERE amount > 100",
    "SELECT pid FROM orders UNION ALL SELECT id FROM people",
]

ORDERED_POOL = [
    "SELECT name FROM people ORDER BY age DESC, name LIMIT 3",
    "SELECT name FROM people ORDER BY age, name LIMIT 2 OFFSET 1",
    "SELECT p.name FROM people p, orders o WHERE p.id = o.pid "
    "ORDER BY o.amount DESC",
]


def _sql_db():
    database = Database()
    database.execute(
        "CREATE TABLE people (id INTEGER PRIMARY KEY, name STRING, "
        "age INTEGER, city STRING)"
    )
    database.execute("CREATE INDEX people_city ON people (city)")
    database.execute("CREATE INDEX people_age ON people (age) USING sorted")
    database.execute(
        "CREATE TABLE orders (oid INTEGER PRIMARY KEY, pid INTEGER, "
        "amount DOUBLE, item STRING)"
    )
    database.execute("CREATE INDEX orders_pid ON orders (pid)")
    database.execute(
        "CREATE TABLE shipments (sid INTEGER PRIMARY KEY, oid INTEGER, "
        "carrier STRING)"
    )
    database.execute("CREATE INDEX shipments_oid ON shipments (oid)")
    people = [
        (1, "alice", 34, "paris"),
        (2, "bob", 28, "london"),
        (3, "carol", 41, "paris"),
        (4, "dan", 23, None),
        (5, "eve", 28, "berlin"),
        (6, "frank", None, "paris"),
    ]
    for row in people:
        database.execute("INSERT INTO people VALUES (?, ?, ?, ?)", list(row))
    orders = [
        (10, 1, 25.0, "book"),
        (11, 1, 14.0, "pen"),
        (12, 2, 120.0, "chair"),
        (13, 3, 9.5, "book"),
        (14, 5, 30.0, "lamp"),
    ]
    for row in orders:
        database.execute("INSERT INTO orders VALUES (?, ?, ?, ?)", list(row))
    shipments = [
        (100, 10, "dhl"),
        (101, 12, "ups"),
        (102, 13, "dhl"),
    ]
    for row in shipments:
        database.execute(
            "INSERT INTO shipments VALUES (?, ?, ?)", list(row)
        )
    return database


@pytest.fixture(scope="module")
def sql_dbs():
    analyzed, plain = _sql_db(), _sql_db()
    analyzed.execute("ANALYZE")
    return analyzed, plain


@pytest.mark.parametrize("sql", SQL_POOL)
def test_sql_shapes_agree(sql_dbs, sql):
    costed, fallback = run_both(sql_dbs, lambda db: db.execute(sql).rows)
    assert canon(costed) == canon(fallback), sql


@pytest.mark.parametrize("sql", ORDERED_POOL)
def test_ordered_sql_shapes_agree_exactly(sql_dbs, sql):
    costed, fallback = run_both(sql_dbs, lambda db: db.execute(sql).rows)
    assert costed == fallback, sql


def test_stats_actually_engage(sql_dbs):
    """Sanity check on the corpus itself: the two sides must not be
    silently identical because statistics failed to load."""
    analyzed, plain = sql_dbs
    assert analyzed.statistics.get(
        "people", analyzed.schema_epoch
    ) is not None
    assert plain.statistics.get("people", plain.schema_epoch) is None
    import re

    def first_est(database):
        sql = "EXPLAIN SELECT * FROM people WHERE city = 'paris'"
        text = database.execute(sql).rows[0][0]
        return int(re.search(r"est_rows=(\d+)", text).group(1))

    costed, fallback = run_both(sql_dbs, first_est)
    assert costed != fallback

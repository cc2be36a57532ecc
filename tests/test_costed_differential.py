"""Differential testing: the RAM and disk cost regimes of the planner.

Every query runs on two identical stores: one planning with the default
``index_probe_cost`` (an index probe costs about a sequential row, the
paper's RAM regime) and one whose probes cost a thousand rows (the disk
regime, pushed far enough that these small fixtures' joins flip).  The
two pick different join methods — index nested loops against hash
joins — but must return the same *multiset* of rows for every query.
Results are compared unordered (canonicalized by ``repr``) because a
different join order legitimately permutes output rows; queries with
ORDER BY additionally assert the exact ordered result.

Corpus: the paper's Table 8 pipe matrix and Figure 7 examples over the
TinkerPop classic graph, and a pool of SQL shapes over a relational
fixture.
"""

import re

import pytest

from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from repro.relational import Database
from tests.corpus import FIGURE7_EXAMPLES, TABLE8_MATRIX


#: planner options of the disk regime
DISK_REGIME = {"index_probe_cost": 1000.0}


def run_both(pair, run):
    """Call *run* on the RAM-regime member of *pair* and on the
    disk-regime one; return both results."""
    ram, disk = pair
    return run(ram), run(disk)


def canon(result):
    """Order-insensitive canonical form of a query result."""
    return sorted(repr(item) for item in result)


def _classic_store(planner_options=None):
    store = SQLGraphStore(planner_options=planner_options)
    store.load_graph(tinkerpop_classic())
    store.create_attribute_index("vertex", "lang")
    return store


@pytest.fixture(scope="module")
def classic_stores():
    return _classic_store(), _classic_store(DISK_REGIME)


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


def _sql_db(planner_options=None):
    database = Database(planner_options=planner_options)
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
    return _sql_db(), _sql_db(DISK_REGIME)


@pytest.mark.parametrize("sql", SQL_POOL)
def test_sql_shapes_agree(sql_dbs, sql):
    costed, fallback = run_both(sql_dbs, lambda db: db.execute(sql).rows)
    assert canon(costed) == canon(fallback), sql


@pytest.mark.parametrize("sql", ORDERED_POOL)
def test_ordered_sql_shapes_agree_exactly(sql_dbs, sql):
    costed, fallback = run_both(sql_dbs, lambda db: db.execute(sql).rows)
    assert costed == fallback, sql


def test_probe_cost_actually_engages(sql_dbs):
    """Sanity check on the corpus itself: the two regimes must not be
    silently identical because the probe cost failed to reach the
    planner."""

    def plan(database):
        sql = (
            "EXPLAIN SELECT p.name, o.item FROM people p, orders o "
            "WHERE p.id = o.pid"
        )
        text = "\n".join(row[0] for row in database.execute(sql).rows)
        return re.sub(r"\(est_rows=\d+\)", "", text)

    ram, disk = run_both(sql_dbs, plan)
    assert "IndexNLJoin" in ram
    assert "IndexNLJoin" not in disk

"""Differential testing of the comparison / boolean batch kernels against a
plain-Python filter over the graph's own vertex properties.

The engine-independent references for everything else the executor does
live elsewhere: ``tests/test_sqlite_differential.py`` (SQL shapes against
SQLite) and ``tests/test_table8_coverage.py`` / ``tests/test_differential.py``
(Gremlin pipelines against the reference interpreter).
"""

import operator as py_operator

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import SQLGraphStore
from repro.datasets.random_graphs import random_property_graph

COLUMNS = ["name", "age", "lang", "score"]
OPERATORS = {
    "=": py_operator.eq, "<>": py_operator.ne, "<": py_operator.lt,
    "<=": py_operator.le, ">": py_operator.gt, ">=": py_operator.ge,
}
CONJUNCTS = [
    "",
    " AND JSON_VAL(attr, 'age') IS NOT NULL",
    " OR JSON_VAL(attr, 'score') > 5.0",
    " AND JSON_VAL(attr, 'name') LIKE 'n%'",
]


def expected_vids(graph, column, operator, value, conjunct):
    """Vertices the generated WHERE clause keeps (SQL three-valued logic:
    a comparison with a missing property is unknown, and WHERE drops it)."""
    kept = []
    for vertex in graph.vertices():
        props = vertex.properties
        left = props.get(column)
        if left is None:
            first = None
        elif isinstance(left, str):
            # a string equals no number, and no order holds between
            # them: an ordering is unknown
            first = {"=": False, "<>": True}.get(operator)
        else:
            first = OPERATORS[operator](left, value)
        if conjunct == CONJUNCTS[1]:
            keep = first and props.get("age") is not None
        elif conjunct == CONJUNCTS[2]:
            keep = first or props.get("score", 0) > 5.0
        elif conjunct == CONJUNCTS[3]:
            keep = first and props.get("name", "").startswith("n")
        else:
            keep = first
        if keep:
            kept.append(vertex.id)
    return kept


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    column=st.sampled_from(COLUMNS),
    operator=st.sampled_from(sorted(OPERATORS)),
    value=st.integers(0, 100),
    conjunct=st.sampled_from(CONJUNCTS),
    distinct=st.booleans(),
    seed=st.integers(0, 50),
)
def test_randomized_predicates_agree(
    column, operator, value, conjunct, distinct, seed
):
    """Randomized WHERE clauses over a randomized vertex-attribute table,
    including NULL-heavy columns."""
    graph = random_property_graph(seed=seed, n_vertices=20, n_edges=30)
    store = SQLGraphStore()
    store.load_graph(graph)
    head = "SELECT DISTINCT" if distinct else "SELECT"
    sql = (
        f"{head} vid FROM va "
        f"WHERE JSON_VAL(attr, '{column}') {operator} {value}{conjunct}"
    )
    # randomized predicates hit the store's relational layer directly
    got = store.database.execute(sql).column()
    assert sorted(got) == sorted(
        expected_vids(graph, column, operator, value, conjunct)
    ), sql

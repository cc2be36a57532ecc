"""The SQL/translation invariant checker over the golden corpus.

Positive direction: every Table-8 and Figure-7 query runs through the
production pipeline and passes `verify_translation` with zero problems
(the acceptance bar: 100% of the corpus validates). Negative direction:
`verify_sql` is fed deliberately broken SQL/recipes and must name each
violation — dropped lazy-delete filter, parameter-slot drift, CTE abuse,
and a busted unnest triad.
"""

from __future__ import annotations

import pytest

from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from tests.corpus import FIGURE7_EXAMPLES, TABLE8_MATRIX, golden_corpus
from tests.sqlcheck import verify_sql, verify_translation


@pytest.fixture(scope="module")
def store():
    graph = tinkerpop_classic()
    s = SQLGraphStore()
    s.load_graph(graph)
    return s


@pytest.fixture(scope="module")
def schema(store):
    return store.schema


def test_corpus_merges_both_families():
    corpus = golden_corpus()
    assert set(TABLE8_MATRIX) <= set(corpus)
    assert set(FIGURE7_EXAMPLES) <= set(corpus)
    assert len(corpus) == len(TABLE8_MATRIX) + len(FIGURE7_EXAMPLES)


@pytest.mark.parametrize("name", sorted(golden_corpus()))
def test_golden_translation_satisfies_invariants(store, name):
    """100% of the golden corpus passes the invariant checker."""
    problems = verify_translation(store, golden_corpus()[name])
    assert problems == [], f"{name}: {problems}"


# ---------------------------------------------------------------------------
# negative cases: verify_sql must name each violation
# ---------------------------------------------------------------------------

def test_unparseable_sql_reported(schema):
    problems = verify_sql(schema, "SELECT FROM WHERE", [], 0)
    assert any("parse" in p for p in problems)


def test_dropped_vertex_lazy_delete_filter(schema):
    sql = ("WITH t1 AS (SELECT vid FROM va), "
           "t2 AS (SELECT vid FROM t1) "
           "SELECT vid FROM t2")
    problems = verify_sql(schema, sql, [], 0)
    assert any("vid >= 0" in p for p in problems)


def test_dropped_edge_lazy_delete_filter(schema):
    sql = ("WITH t1 AS (SELECT eid FROM ea) "
           "SELECT eid FROM t1")
    problems = verify_sql(schema, sql, [], 0)
    assert any("eid >= 0" in p for p in problems)


def test_lazy_delete_filter_satisfies(schema):
    sql = ("WITH t1 AS (SELECT vid FROM va WHERE vid >= 0) "
           "SELECT vid FROM t1")
    assert verify_sql(schema, sql, [], 0) == []


def test_joined_scan_is_exempt_from_lazy_delete(schema):
    # adjacency joins hit va through a join, where tombstoned vids can't
    # appear (the opa/ipa side was filtered upstream) — no filter required
    sql = ("WITH t1 AS (SELECT va.vid FROM va "
           "JOIN ea ON ea.svid = va.vid WHERE ea.eid >= 0) "
           "SELECT vid FROM t1")
    problems = verify_sql(schema, sql, [], 0)
    assert not any("vid >= 0" in p for p in problems)


def test_placeholder_count_must_match_recipe(schema):
    sql = ("WITH t1 AS (SELECT vid FROM va WHERE vid >= 0 AND vid = ?) "
           "SELECT vid FROM t1")
    problems = verify_sql(schema, sql, [], 1)
    assert any("placeholder" in p or "recipe" in p for p in problems)


def test_recipe_slot_out_of_range(schema):
    sql = ("WITH t1 AS (SELECT vid FROM va WHERE vid >= 0 AND vid = ?) "
           "SELECT vid FROM t1")
    problems = verify_sql(schema, sql, [5], 1)
    assert any("slot" in p for p in problems)


def test_unused_value_slot_reported(schema):
    # two extracted values but the recipe only consumes slot 0: the
    # plan-cache key over-splits
    sql = ("WITH t1 AS (SELECT vid FROM va WHERE vid >= 0 AND vid = ?) "
           "SELECT vid FROM t1")
    problems = verify_sql(schema, sql, [0], 2)
    assert any("never bound" in p for p in problems)


def test_undefined_cte_reference(schema):
    sql = ("WITH t1 AS (SELECT vid FROM va WHERE vid >= 0) "
           "SELECT vid FROM t9")
    problems = verify_sql(schema, sql, [], 0)
    assert any("t9" in p for p in problems)


def test_cte_used_before_definition(schema):
    sql = ("WITH t1 AS (SELECT vid FROM t2), "
           "t2 AS (SELECT vid FROM va WHERE vid >= 0) "
           "SELECT vid FROM t1")
    problems = verify_sql(schema, sql, [], 0)
    assert any("t2" in p for p in problems)


def test_duplicate_cte_definition(schema):
    sql = ("WITH t1 AS (SELECT vid FROM va WHERE vid >= 0), "
           "t1 AS (SELECT vid FROM va WHERE vid >= 0) "
           "SELECT vid FROM t1")
    problems = verify_sql(schema, sql, [], 0)
    assert any("t1" in p for p in problems)


def test_unnest_triad_budget_violation(store, schema):
    """An unnest enumerating too few triads is caught."""
    budget = schema.out_columns
    triads = ", ".join(
        f"(p.eid{i}, p.lbl{i}, p.val{i})" for i in range(budget - 1)
    )
    sql = (
        "WITH t1 AS (SELECT vid FROM va WHERE vid >= 0), "
        "t2 AS (SELECT n.x1 AS eid FROM t1, opa AS p, "
        f"TABLE(VALUES {triads}) AS n(x1, x2, x3) "
        "WHERE p.vid = t1.vid) "
        "SELECT eid FROM t2"
    )
    problems = verify_sql(schema, sql, [], 0)
    assert any("triad" in p or "budget" in p for p in problems)


def test_unnest_duplicate_triad_caught(store, schema):
    budget = schema.out_columns
    indices = [0] + list(range(budget - 1))  # duplicates 0, drops last
    triads = ", ".join(
        f"(p.eid{i}, p.lbl{i}, p.val{i})" for i in indices
    )
    sql = (
        "WITH t1 AS (SELECT vid FROM va WHERE vid >= 0), "
        "t2 AS (SELECT n.x1 AS eid FROM t1, opa AS p, "
        f"TABLE(VALUES {triads}) AS n(x1, x2, x3) "
        "WHERE p.vid = t1.vid) "
        "SELECT eid FROM t2"
    )
    problems = verify_sql(schema, sql, [], 0)
    assert problems != []


def test_verify_translation_catches_interpreter_only_query(store):
    """A query the translator rejects surfaces as a problem, not a crash."""
    problems = verify_translation(store, "g.V.loop(2){it.loops < 3}")
    assert any("does not translate" in p for p in problems)

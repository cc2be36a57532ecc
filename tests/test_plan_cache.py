"""Compiled-query cache: LRU mechanics, prepared statements, Gremlin
templates, and schema-epoch invalidation."""

import pytest

from repro.core import SQLGraphStore
from repro.core.translator import (
    ParamLiteral,
    parameterize_query,
    sql_literal,
    strip_parameter_markers,
)
from repro.datasets.tinker import paper_figure_graph
from repro.gremlin.errors import GremlinError
from repro.gremlin.parser import parse_gremlin
from repro.relational import Database
from repro.relational.cache import LRUCache
from repro.relational.errors import BindError


@pytest.fixture
def store():
    instance = SQLGraphStore()
    instance.load_graph(paper_figure_graph())
    return instance


# ----------------------------------------------------------------------
# LRUCache mechanics
# ----------------------------------------------------------------------
class TestLRUCache:
    def test_hit_miss_counters(self):
        cache = LRUCache(capacity=4)
        assert cache.get("k") is None
        cache.put("k", 1)
        assert cache.get("k") == 1
        stats = cache.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 1

    def test_lru_eviction_order(self):
        cache = LRUCache(capacity=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh a; b is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1
        assert cache.get("c") == 3
        assert len(cache) == 2

    def test_epoch_mismatch_counts_invalidation(self):
        cache = LRUCache(capacity=4)
        cache.put("k", 1, epoch=0)
        assert cache.get("k", epoch=1) is None
        stats = cache.stats()
        assert stats["invalidations"] == 1
        assert stats["misses"] == 1
        assert stats["size"] == 0

    def test_invalidate_all(self):
        cache = LRUCache(capacity=4)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate_all() == 2
        assert cache.stats()["invalidations"] == 2
        assert len(cache) == 0

    def test_unbounded_capacity(self):
        cache = LRUCache(capacity=None)
        for i in range(500):
            cache.put(i, i)
        assert len(cache) == 500


# ----------------------------------------------------------------------
# prepared-statement (SQL) cache
# ----------------------------------------------------------------------
class TestStatementCache:
    def _db(self):
        db = Database()
        db.execute("CREATE TABLE t (a INTEGER, b STRING)")
        for a, b in [(1, "x"), (2, "y"), (3, "z")]:
            db.execute("INSERT INTO t VALUES (?, ?)", [a, b])
        return db

    def test_warm_hit_rebinds_parameters(self):
        db = self._db()
        sql = "SELECT b FROM t WHERE a = ?"
        assert db.execute(sql, [1]).rows == [("x",)]
        assert not db.last_statement_cache_hit
        assert db.execute(sql, [2]).rows == [("y",)]
        assert db.last_statement_cache_hit
        assert db.execute(sql, [3]).rows == [("z",)]
        assert db.plan_cache.stats()["hits"] >= 2

    def test_whitespace_normalized_key(self):
        db = self._db()
        db.execute("SELECT a FROM t")
        assert not db.last_statement_cache_hit
        db.execute("  SELECT a FROM t  ")
        assert db.last_statement_cache_hit

    def test_missing_parameter_message(self):
        db = self._db()
        with pytest.raises(BindError, match="requires parameter 1, got 0"):
            db.execute("SELECT b FROM t WHERE a = ?")
        with pytest.raises(BindError, match="requires parameter 2, got 1"):
            db.execute("SELECT b FROM t WHERE a = ? AND b = ?", [1])

    def test_aggregate_statement_reusable(self):
        # regression: the aggregate rewrite must not mutate the cached AST
        db = self._db()
        sql = "SELECT b, COUNT(*), SUM(a) FROM t GROUP BY b HAVING SUM(a) > 0"
        first = sorted(db.execute(sql).rows)
        second = sorted(db.execute(sql).rows)
        assert db.last_statement_cache_hit
        assert first == second == [("x", 1, 1), ("y", 1, 2), ("z", 1, 3)]

    def test_recursive_cte_reusable(self):
        db = self._db()
        sql = ("WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
               "SELECT n + 1 FROM r WHERE n < ?) SELECT SUM(n) FROM r")
        assert db.execute(sql, [4]).scalar() == 10
        assert db.execute(sql, [5]).scalar() == 15
        assert db.last_statement_cache_hit

    def test_dml_with_parameters_repeats(self):
        db = self._db()
        db.execute("UPDATE t SET b = ? WHERE a = ?", ["u1", 1])
        db.execute("UPDATE t SET b = ? WHERE a = ?", ["u2", 2])
        assert db.last_statement_cache_hit
        assert sorted(db.execute("SELECT b FROM t").column()) == [
            "u1", "u2", "z"
        ]
        db.execute("DELETE FROM t WHERE a = ?", [1])
        db.execute("DELETE FROM t WHERE a = ?", [2])
        assert db.execute("SELECT COUNT(*) FROM t").scalar() == 1

    def test_parameterized_in_list_uses_index(self):
        db = self._db()
        db.execute("CREATE INDEX t_a ON t (a)")
        plan = "\n".join(
            row[0]
            for row in db.execute(
                "EXPLAIN SELECT b FROM t WHERE a IN (?, ?)", [1, 3]
            ).rows
        )
        assert "IndexEqScan" in plan
        rows = db.execute("SELECT b FROM t WHERE a IN (?, ?)", [1, 3]).rows
        assert sorted(rows) == [("x",), ("z",)]

    def test_ddl_bumps_epoch_and_invalidates(self):
        db = self._db()
        sql = "SELECT b FROM t WHERE a = ?"
        db.execute(sql, [1])
        db.execute(sql, [1])
        assert db.last_statement_cache_hit
        epoch = db.schema_epoch
        db.execute("CREATE INDEX t_a ON t (a)")
        assert db.schema_epoch == epoch + 1
        assert db.plan_cache.stats()["size"] == 0
        # re-prepared post-DDL plan must use the new index and stay correct
        assert db.execute(sql, [2]).rows == [("y",)]
        assert not db.last_statement_cache_hit
        db.execute("CREATE TABLE t2 (x INTEGER)")
        assert db.schema_epoch == epoch + 2
        db.execute("DROP TABLE t2")
        assert db.schema_epoch == epoch + 3
        # DROP of a missing table with IF EXISTS is not a schema change
        db.execute("DROP TABLE IF EXISTS t2")
        assert db.schema_epoch == epoch + 3

    def test_explain_analyze_reports_plan_cache(self):
        db = self._db()
        lines = [
            row[0]
            for row in db.execute("EXPLAIN ANALYZE SELECT a FROM t").rows
        ]
        assert any(line.startswith("Plan cache: miss") for line in lines)
        lines = [
            row[0]
            for row in db.execute("EXPLAIN ANALYZE SELECT a FROM t").rows
        ]
        assert any(line.startswith("Plan cache: hit") for line in lines)


# ----------------------------------------------------------------------
# Gremlin template parameterization
# ----------------------------------------------------------------------
class TestParameterization:
    def test_same_template_different_literals_share_key(self):
        q1 = parse_gremlin("g.v(1).out.has('age', 29).name")
        q2 = parse_gremlin("g.v(6).out.has('age', 31).name")
        t1, v1, k1 = parameterize_query(q1)
        t2, v2, k2 = parameterize_query(q2)
        assert k1 == k2
        assert v1 == [1, 29]
        assert v2 == [6, 31]

    def test_different_shapes_get_different_keys(self):
        queries = [
            "g.v(1).out",
            "g.v(1, 2).out",          # arity changes the template
            "g.v(1).out('knows')",    # labels stay literal
            "g.v(1).in",
        ]
        keys = set()
        for text in queries:
            __, __, key = parameterize_query(parse_gremlin(text))
            keys.add(key)
        assert len(keys) == len(queries)

    def test_structural_literals_stay_literal(self):
        # range positions and loop bounds shape the SQL; only the id moves
        # into the parameter vector
        query = parse_gremlin("g.v(3).out.loop(1){it.loops < 2}.range(0, 4)")
        __, values, __ = parameterize_query(query)
        assert values == [3]

    def test_closure_constants_extracted(self):
        query = parse_gremlin("g.V.filter{it.age > 30 && it.name != 'x'}.name")
        __, values, __ = parameterize_query(query)
        assert sorted(map(str, values)) == ["30", "x"]

    def test_string_method_argument_stays_literal(self):
        query = parse_gremlin("g.V.filter{it.name.contains('mar')}.name")
        __, values, __ = parameterize_query(query)
        assert values == []

    def test_input_query_not_mutated(self):
        query = parse_gremlin("g.v(1).has('age', 29)")
        parameterize_query(query)
        assert query.pipes[0].ids == [1]
        assert query.pipes[1].value == 29

    def test_sql_literal_renders_marker(self):
        assert sql_literal(ParamLiteral(3)) == "{?3}"

    def test_strip_markers_orders_and_duplicates(self):
        sql = "SELECT a WHERE x = {?1} AND y IN ({?0}, {?1})"
        clean, recipe = strip_parameter_markers(sql)
        assert clean == "SELECT a WHERE x = ? AND y IN (?, ?)"
        assert recipe == [1, 0, 1]

    def test_strip_markers_skips_quoted_text(self):
        sql = "SELECT a WHERE s = '{?0}' AND t = {?0} AND u = 'it''s {?1}'"
        clean, recipe = strip_parameter_markers(sql)
        assert clean == "SELECT a WHERE s = '{?0}' AND t = ? AND u = 'it''s {?1}'"
        assert recipe == [0]


# ----------------------------------------------------------------------
# end-to-end through the store
# ----------------------------------------------------------------------
class TestStoreCache:
    def test_translation_cache_hit_across_ids(self, store):
        first = store.run("g.v(1).out.name")
        stats = store.last_query_stats
        assert not stats.translation_cache_hit
        second = store.run("g.v(4).out.name")
        stats = store.last_query_stats
        assert stats.translation_cache_hit
        assert stats.plan_cache_hit
        assert sorted(first) != sorted(second)  # genuinely different bindings
        assert store.translation_cache.stats()["hits"] == 1

    def test_both_direction_duplicate_binding(self, store):
        # both/bothE render the incident-edge condition twice, so one
        # extracted literal feeds two placeholders
        cold = store.run("g.v(1).both('knows').id")
        warm = store.run("g.v(1).both('knows').id")
        assert sorted(cold) == sorted(warm)
        assert store.last_query_stats.translation_cache_hit

    def test_warm_results_match_first_run(self, store):
        queries = [
            "g.V.has('age', T.gt, 28).name",
            "g.v(1).out.out.name",
            "g.V.interval('age', 27, 33).name",
            "g.V.out.aggregate(x).out.except(x).count()",
            "g.V.ifThenElse{it.age != null}{it.age}{-1}",
        ]
        for text in queries:
            cold = sorted(map(repr, store.run(text)))
            assert not store.last_query_stats.translation_cache_hit
            assert sorted(map(repr, store.run(text))) == cold, text
            assert store.last_query_stats.translation_cache_hit

    def test_create_attribute_index_invalidates(self, store):
        query = "g.V.has('age', T.gt, 28).name"
        cold = sorted(store.run(query))
        assert sorted(store.run(query)) == cold
        epoch = store.database.schema_epoch
        store.create_attribute_index("vertex", "age", sorted_index=True)
        assert store.database.schema_epoch > epoch
        assert sorted(store.run(query)) == cold
        # the translation template key is epoch-stamped too
        assert not store.last_query_stats.translation_cache_hit

    def test_reorganize_keeps_warm_queries_correct(self, store):
        query = "g.V.out('knows').name"
        cold = sorted(store.run(query))
        store.reorganize()
        assert sorted(store.run(query)) == cold

    def test_lazy_delete_visible_through_warm_plans(self, store):
        before = store.run("g.V.count()")[0]
        assert store.run("g.V.count()")[0] == before  # warm the caches
        store.remove_vertex(1)
        # DML does not invalidate plans; re-execution must see the change
        assert store.run("g.V.count()")[0] == before - 1
        assert store.last_query_stats.translation_cache_hit

    def test_last_query_stats_surface_cache_counters(self, store):
        store.run("g.V.name")
        entry = store.last_query_stats.as_dict()
        assert entry["translation_cache_hit"] is False
        assert entry["plan_cache_hit"] is False
        for section in ("plan_cache", "translation_cache"):
            counters = entry["cache_stats"][section]
            assert {"hits", "misses", "invalidations", "size"} <= set(counters)

    def test_run_without_val_column_raises_friendly_error(
        self, store, monkeypatch
    ):
        from repro.relational.database import ResultSet

        monkeypatch.setattr(
            store, "query", lambda text: ResultSet(["vid", "attr"], [])
        )
        with pytest.raises(GremlinError, match="no 'val' column.*vid, attr"):
            store.run("g.V")


class TestCliStats:
    def test_stats_shows_cache_counters(self, store):
        from repro.cli import execute_line

        store.run("g.V.count()")
        store.run("g.V.count()")
        output = execute_line(store, ":stats")
        assert "plan cache:" in output
        assert "translation cache:" in output
        assert "caches: translation hit, plan hit" in output

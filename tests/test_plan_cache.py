"""Compiled-query cache: LRU mechanics, prepared statements, cached
physical plans, Gremlin templates, and schema-epoch invalidation."""

import re
import sys
import threading

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
from repro.obs.context import current
from repro.relational import Database
from repro.relational.cache import LRUCache
from repro.relational.errors import BindError
from repro.relational.planner import Planner


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
        assert not current().plan_cache_hit
        assert db.execute(sql, [2]).rows == [("y",)]
        assert current().plan_cache_hit
        assert db.execute(sql, [3]).rows == [("z",)]
        assert db.plan_cache.stats()["hits"] >= 2

    def test_whitespace_normalized_key(self):
        db = self._db()
        db.execute("SELECT a FROM t")
        assert not current().plan_cache_hit
        db.execute("  SELECT a FROM t  ")
        assert current().plan_cache_hit

    def test_missing_parameter_message(self):
        db = self._db()
        with pytest.raises(BindError, match="requires parameter 1, got 0"):
            db.execute("SELECT b FROM t WHERE a = ?")
        with pytest.raises(BindError, match="requires parameter 2, got 1"):
            db.execute("SELECT b FROM t WHERE a = ? AND b = ?", [1])
        # ... and a cached plan handed too few values says so too
        sql = "SELECT b FROM t WHERE a = ? AND b = ?"
        assert db.execute(sql, [1, "x"]).rows == [("x",)]
        with pytest.raises(BindError, match="requires parameter 2, got 1"):
            db.execute(sql, [1])
        assert db.execute(sql, [2, "y", "extra"]).rows == [("y",)]

    def test_aggregate_statement_reusable(self):
        # regression: the aggregate rewrite must not mutate the cached AST
        db = self._db()
        sql = "SELECT b, COUNT(*), SUM(a) * 2 FROM t GROUP BY b"
        first = sorted(db.execute(sql).rows)
        second = sorted(db.execute(sql).rows)
        assert current().plan_cache_hit
        assert first == second == [("x", 1, 2), ("y", 1, 4), ("z", 1, 6)]

    def test_recursive_cte_reusable(self):
        db = self._db()
        sql = ("WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL "
               "SELECT n + 1 FROM r WHERE n < ?) SELECT SUM(n) FROM r")
        assert db.execute(sql, [4]).scalar() == 10
        assert db.execute(sql, [5]).scalar() == 15
        assert current().plan_cache_hit

    def test_dml_with_parameters_repeats(self):
        db = self._db()
        db.execute("UPDATE t SET b = ? WHERE a = ?", ["u1", 1])
        db.execute("UPDATE t SET b = ? WHERE a = ?", ["u2", 2])
        assert current().plan_cache_hit
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
        assert current().plan_cache_hit
        epoch = db.schema_epoch
        db.execute("CREATE INDEX t_a ON t (a)")
        assert db.schema_epoch == epoch + 1
        assert db.plan_cache.stats()["size"] == 0
        # re-prepared post-DDL plan must use the new index and stay correct
        assert db.execute(sql, [2]).rows == [("y",)]
        assert not current().plan_cache_hit
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
# cached physical plans: re-opened, never shared, never stale
# ----------------------------------------------------------------------
def count_plans(monkeypatch):
    """Count every query planning (cache miss, EXPLAIN, instrumented)."""
    counter = {"plans": 0}
    original = Database._plan

    def counting(self, *args, **kwargs):
        counter["plans"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Database, "_plan", counting)
    return counter


def actual_rows(lines):
    return [re.findall(r"actual_rows=(\d+)", line) for line in lines]


class TestPlanReuse:
    def _db(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, "
                   "v INTEGER)")
        db.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i % 50}, {i * 3})" for i in range(1000)
        ))
        db.execute("CREATE INDEX t_grp ON t (grp)")
        return db

    CTE_SQL = (
        "WITH a AS (SELECT id, v FROM t WHERE grp = ?), "
        "b AS (SELECT a.id, a.v FROM a WHERE a.v > ?) "
        "SELECT COUNT(*), SUM(v), MIN(id) FROM b"
    )

    def test_warm_execution_does_not_plan(self, monkeypatch):
        db = self._db()
        counter = count_plans(monkeypatch)
        for grp in range(5):
            assert db.execute(self.CTE_SQL, [grp, -1]).rows == [(
                20, sum(i * 3 for i in range(grp, 1000, 50)), grp
            )]
        assert counter["plans"] == 1

    def test_concurrent_executions_match_serial_answers(self):
        db = self._db()
        bindings = [[grp, grp * 40] for grp in range(50)]
        expected = [db.execute(self.CTE_SQL, b).rows for b in bindings]
        errors = []
        start = threading.Barrier(4)

        def worker(offset):
            start.wait()
            for i in range(2000):
                k = (i * 7 + offset) % len(bindings)
                rows = db.execute(self.CTE_SQL, bindings[k]).rows
                if rows != expected[k]:
                    errors.append((bindings[k], rows, expected[k]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []

    def test_recreated_scratch_table_is_read_afresh(self):
        # a table name means nothing to the engine: DDL on a scratch_*
        # table moves the schema epoch like any other
        db = Database()
        db.execute("CREATE TABLE scratch_plan_t (a INTEGER, b STRING)")
        db.execute("CREATE INDEX scratch_plan_t_a ON scratch_plan_t (a)")
        db.execute("INSERT INTO scratch_plan_t VALUES (1, 'old'), (2, 'old')")
        sql = "SELECT b FROM scratch_plan_t WHERE a = ?"
        assert db.execute(sql, [1]).rows == [("old",)]
        assert db.execute(sql, [2]).rows == [("old",)]
        # a statement in hand when the DROP lands (its lock grant waited
        # behind the DROP) keeps its idle plans over the old table
        prepared = db._prepare(sql)
        epoch = db.schema_epoch
        db.execute("DROP TABLE scratch_plan_t")
        db.execute("CREATE TABLE scratch_plan_t (a INTEGER, b STRING)")
        db.execute("INSERT INTO scratch_plan_t VALUES (1, 'new'), (1, 'newer')")
        assert db.schema_epoch == epoch + 2
        with db.scope(prepared.read_tables):
            rows = db._dispatch(prepared, [1]).rows
        assert sorted(rows) == [("new",), ("newer",)]
        assert sorted(db.execute(sql, [1]).rows) == [("new",), ("newer",)]
        assert not current().plan_cache_hit
        db.execute("DROP TABLE scratch_plan_t")
        with pytest.raises(BindError, match="unknown table"):
            db.execute(sql, [1])

    def test_analyze_forces_a_replan(self, monkeypatch):
        db = self._db()
        counter = count_plans(monkeypatch)
        db.execute(self.CTE_SQL, [1, 0])
        db.execute(self.CTE_SQL, [2, 0])
        assert counter["plans"] == 1
        db.execute("ANALYZE t")
        assert db.execute(self.CTE_SQL, [3, 0]).scalar() == 20
        assert counter["plans"] == 2

    def test_attribute_index_forces_a_replan(self, store, monkeypatch):
        query = "g.V.has('age', T.gt, 28).name"
        counter = count_plans(monkeypatch)
        cold = sorted(store.run(query))
        assert sorted(store.run(query)) == cold
        assert counter["plans"] == 1
        store.create_attribute_index("vertex", "age", sorted_index=True)
        assert sorted(store.run(query)) == cold
        assert counter["plans"] == 2
        plan = "\n".join(store.database.execute(
            "EXPLAIN SELECT vid FROM va WHERE JSON_VAL(attr, 'age') > 28"
        ).column())
        assert "IndexRangeScan" in plan

    def test_plan_from_tiny_seed_serves_a_wide_fanout(self):
        def build():
            db = Database()
            db.execute("CREATE TABLE seed (k INTEGER)")
            db.execute("CREATE TABLE wide (k INTEGER, n INTEGER)")
            db.execute("INSERT INTO seed VALUES (1), (7)")
            db.execute("INSERT INTO wide VALUES (1, -1), " + ", ".join(
                f"(7, {n})" for n in range(1500)
            ))
            db.execute("CREATE INDEX wide_k ON wide (k)")
            return db

        sql = (
            "WITH s AS (SELECT k FROM seed WHERE k = ?), "
            "w AS (SELECT w.n AS n FROM s, wide w WHERE s.k = w.k) "
            "SELECT n FROM w"
        )
        warm = build()
        assert warm.execute(sql, [1]).rows == [(-1,)]  # planned on 1 row
        wide = warm.execute(sql, [7]).rows
        assert current().plan_cache_hit
        assert len(wide) == 1500
        assert sorted(wide) == sorted(build().execute(sql, [7]).rows)

    def test_explain_analyze_between_executions(self):
        db = self._db()
        first = db.execute(self.CTE_SQL, [3, 100]).rows
        explained = db.execute("EXPLAIN ANALYZE " + self.CTE_SQL, [3, 100])
        assert db.execute(self.CTE_SQL, [3, 100]).rows == first
        again = db.execute("EXPLAIN ANALYZE " + self.CTE_SQL, [3, 100])
        assert db.execute(self.CTE_SQL, [3, 100]).rows == first
        counts = actual_rows(explained.column())
        assert any(counts)
        assert actual_rows(again.column()) == counts

    def test_recursive_cte_stable_over_ten_executions(self):
        db = Database()
        db.execute("CREATE TABLE e (src INTEGER, dst INTEGER)")
        db.execute("INSERT INTO e VALUES " + ", ".join(
            f"({i}, {(i * 3 + 1) % 40})" for i in range(40)
        ) + ", (5, 6), (6, 5)")
        sql = (
            "WITH RECURSIVE x AS (SELECT src, dst FROM e WHERE dst >= 0), "
            "r(n) AS (SELECT ? UNION ALL "
            "SELECT x.dst FROM r, x WHERE r.n = x.src) SELECT n FROM r"
        )
        first = sorted(db.execute(sql, [0]).rows)
        other = sorted(db.execute(sql, [5]).rows)
        assert first != other
        for __ in range(9):
            assert sorted(db.execute(sql, [0]).rows) == first
        assert sorted(db.execute(sql, [5]).rows) == other

    def test_gremlin_loop_stable_over_ten_executions(self, store):
        query = "g.v(1).out.loop(1){it.loops < 3}.name"
        first = sorted(store.run(query))
        for __ in range(9):
            assert sorted(store.run(query)) == first
        assert store.last_query_stats.plan_cache_hit

    def test_cached_plan_keeps_no_rows(self):
        db = self._db()
        db.execute(self.CTE_SQL, [1, 0])
        (prepared,) = [
            entry for __, entry in db.plan_cache._entries.values()
            if getattr(entry.statement, "ctes", None)
        ]
        (plan,) = prepared.plans._idle
        runtime = plan.runtime
        assert not runtime.ctes and not runtime.memo and not runtime.primed


# ----------------------------------------------------------------------
# cached plans of writes: UPDATE, DELETE and INSERT … VALUES
# ----------------------------------------------------------------------
def count_planners(monkeypatch):
    """Count every Planner built (statement or subquery planning)."""
    counter = {"planners": 0}
    original = Planner.__init__

    def counting(self, *args, **kwargs):
        counter["planners"] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(Planner, "__init__", counting)
    return counter


class TestDmlPlanReuse:
    def _db(self):
        db = Database()
        db.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, grp INTEGER, "
                   "v INTEGER)")
        db.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, {i % 5}, 0)" for i in range(100)
        ))
        db.execute("CREATE INDEX t_grp ON t (grp) USING sorted")
        db.execute("CREATE TABLE b (y INTEGER)")
        return db

    @staticmethod
    def _v(db, key):
        return db.execute("SELECT v FROM t WHERE id = ?", [key]).scalar()

    @pytest.mark.parametrize("sql, first, second, check", [
        ("UPDATE t SET v = v + ? WHERE id = ?", [1, 3], [2, 4],
         lambda db: TestDmlPlanReuse._v(db, 4) == 2),
        ("UPDATE t SET v = ? WHERE grp >= ?", [1, 3], [2, 4],
         lambda db: db.execute(
             "SELECT COUNT(*) FROM t WHERE v = 2"
         ).scalar() == 20),
        ("DELETE FROM t WHERE id IN (?, ?)", [1, 2], [3, 4],
         lambda db: db.execute("SELECT COUNT(*) FROM t").scalar() == 96),
        ("DELETE FROM t WHERE id IN (SELECT y FROM b) AND grp = ?", [1],
         [2], lambda db: db.execute("SELECT COUNT(*) FROM t").scalar()
         == 100),
        ("INSERT INTO t VALUES (?, ?, ?), (?, 0, 0)", [100, 1, 7, 101],
         [102, 2, 8, 103],
         lambda db: TestDmlPlanReuse._v(db, 102) == 8),
    ], ids=["update-eq", "update-range", "delete-in", "delete-subquery",
            "insert-values"])
    def test_warm_write_builds_no_planner(self, monkeypatch, sql, first,
                                          second, check):
        db = self._db()
        counter = count_planners(monkeypatch)
        db.execute(sql, first)
        cold = counter["planners"]
        assert cold >= 1
        db.execute(sql, second)
        assert current().plan_cache_hit
        assert counter["planners"] == cold
        assert check(db)

    def test_recreated_scratch_target_is_written_afresh(self):
        db = Database()
        create = "CREATE TABLE scratch_dml_t (a INTEGER PRIMARY KEY, b STRING)"
        db.execute(create)
        db.execute("INSERT INTO scratch_dml_t VALUES (1, 'old'), (2, 'old')")
        update = "UPDATE scratch_dml_t SET b = ? WHERE a = ?"
        delete = "DELETE FROM scratch_dml_t WHERE a = ?"
        insert = "INSERT INTO scratch_dml_t VALUES (?, ?)"
        assert db.execute(update, ["mid", 1]).rowcount == 1
        assert db.execute(delete, [2]).rowcount == 1
        db.execute(insert, [3, "mid"])
        # statements in hand when the DROP lands keep their idle plans
        # over the old table
        held = [db._prepare(sql) for sql in (update, delete)]
        epoch = db.schema_epoch
        db.execute("DROP TABLE scratch_dml_t")
        db.execute(create)
        db.execute("INSERT INTO scratch_dml_t VALUES (1, 'new'), (2, 'new')")
        assert db.schema_epoch == epoch + 2
        for prepared, params in zip(held, (["x", 1], [2])):
            with db.scope(prepared.read_tables, prepared.write_tables):
                assert db._dispatch(prepared, params).rowcount == 1
        db.execute(insert, [4, "y"])
        assert not current().plan_cache_hit
        assert sorted(db.execute("SELECT a, b FROM scratch_dml_t").rows) == [
            (1, "x"), (4, "y"),
        ]
        db.execute("DROP TABLE scratch_dml_t")
        for sql, params in ((update, ["z", 1]), (delete, [1])):
            with pytest.raises(BindError, match="unknown table"):
                db.execute(sql, params)

    def test_subqueries_see_changes_between_executions(self):
        db = self._db()
        delete = "DELETE FROM t WHERE id IN (SELECT y FROM b WHERE y > ?)"
        update = (
            "UPDATE t SET v = CASE WHEN 12 IN (SELECT y FROM b) THEN 12 "
            "ELSE 10 END WHERE grp = ?"
        )
        db.execute("INSERT INTO b VALUES (10)")
        assert db.execute(delete, [0]).rowcount == 1
        assert db.execute(update, [1]).rowcount == 20
        assert self._v(db, 1) == 10
        db.execute("INSERT INTO b VALUES (11), (12)")
        assert db.execute(delete, [0]).rowcount == 2
        assert current().plan_cache_hit
        assert db.execute(update, [1]).rowcount == 19
        assert self._v(db, 1) == 12

    @pytest.mark.parametrize("sql, params", [
        ("UPDATE t SET v = ? WHERE id = ?", [1, 2]),
        ("DELETE FROM t WHERE id = ? OR grp = ?", [1, 2]),
        ("INSERT INTO t VALUES (?, ?, 0)", [500, 1]),
    ])
    def test_too_few_parameters_name_the_missing_one(self, sql, params):
        db = self._db()
        db.execute(sql, params)
        with pytest.raises(BindError, match="requires parameter 2, got 1"):
            db.execute(sql, params[:1])

    def test_concurrent_updates_match_serial_answer(self):
        db = self._db()
        sql = "UPDATE t SET v = v + ? WHERE grp = ?"
        workers, rounds = 4, 150
        errors = []
        start = threading.Barrier(workers)

        def worker(n):
            start.wait()
            for i in range(rounds):
                count = db.execute(sql, [n + 1, (i + n) % 5]).rowcount
                if count != 20:
                    errors.append(count)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=worker, args=(n,))
                for n in range(workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        # run serially, worker n adds n + 1 to group (i + n) % 5 each round
        expected = {grp: 0 for grp in range(5)}
        for n in range(workers):
            for i in range(rounds):
                expected[(i + n) % 5] += n + 1
        for aggregate in ("MIN", "MAX"):
            assert dict(db.execute(
                f"SELECT grp, {aggregate}(v) FROM t GROUP BY grp"
            ).rows) == expected


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
        store.run("g.V.name")
        assert store.last_query_stats.translation_cache_hit is True
        assert store.last_query_stats.plan_cache_hit is True
        for cache in (store.database.plan_cache, store.translation_cache):
            counters = cache.stats()
            assert {"hits", "misses", "invalidations", "size"} <= set(counters)
            assert counters["hits"] >= 1 and counters["misses"] >= 1

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

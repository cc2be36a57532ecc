"""Tests for the observability layer: always-on engine counters,
execution stats, page-cache accounting, translation traces, and
store-level query stats."""

import pytest

from repro.graph.model import PropertyGraph
from repro.core.store import SQLGraphStore
from repro.obs.context import current
from repro.obs.stats import TimingHistogram
from repro.relational import Database


def small_store():
    graph = PropertyGraph()
    for i in range(1, 5):
        graph.add_vertex(i, {"name": f"v{i}", "rank": i})
    graph.add_edge(1, 2, "knows", 10)
    graph.add_edge(2, 3, "knows", 11)
    graph.add_edge(3, 4, "knows", 12)
    store = SQLGraphStore()
    store.load_graph(graph)
    return store


class TestHistogram:
    def test_mean_and_bounds(self):
        histogram = TimingHistogram("h")
        for seconds in (0.001, 0.002, 0.003):
            histogram.observe(seconds)
        assert histogram.count == 3
        assert histogram.mean() == pytest.approx(0.002)
        assert histogram.minimum == pytest.approx(0.001)
        assert histogram.maximum == pytest.approx(0.003)

    def test_quantile_upper_bound(self):
        histogram = TimingHistogram("h")
        for __ in range(100):
            histogram.observe(0.001)
        # the 1ms observations land in the bucket bounded above by ~1.024ms
        assert 0.001 <= histogram.quantile(0.95) <= 0.002

    def test_empty_quantile(self):
        assert TimingHistogram("h").quantile(0.5) == 0.0

    def test_bucket_boundaries(self):
        bounds = TimingHistogram.BOUNDS
        for k in (0, 5, len(bounds) - 2):
            histogram = TimingHistogram("h")
            histogram.observe(bounds[k])
            histogram.observe(bounds[k] * 1.000001)
            assert histogram.buckets[k] == 1
            assert histogram.buckets[k + 1] == 1


def explain_analyze(database, sql):
    """Run EXPLAIN ANALYZE and return its ExecutionStats."""
    database.execute("EXPLAIN ANALYZE " + sql)
    return current().statement


class TestEngineCounters:
    def test_point_select_counts_hits_and_probes(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        database.execute("INSERT INTO t VALUES (1)")
        index = database.catalog.indexes()[0]
        hits0, probes0 = database.buffer_pool.hits, index.probes
        database.execute("SELECT * FROM t WHERE id = 1")
        assert database.buffer_pool.hits > hits0
        assert index.probes == probes0 + 1


class TestPageCacheAccounting:
    def test_hit_miss_deltas_in_execution_stats(self):
        # 1-page pool, 3-page table (256 rows/page) forces misses
        database = Database(buffer_pool_pages=1)
        database.execute("CREATE TABLE t (id INTEGER, v INTEGER)")
        for i in range(600):
            database.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        stats = explain_analyze(database, "SELECT COUNT(*) FROM t")
        assert stats.page_hits + stats.page_misses > 0
        assert stats.page_misses > 0  # 1-page pool can't hold the table
        # pool-level counters and per-query deltas agree in kind
        assert database.buffer_pool.misses >= stats.page_misses

    def test_warm_pool_is_all_hits(self):
        database = Database()  # unbounded pool
        database.execute("CREATE TABLE t (id INTEGER)")
        database.execute("INSERT INTO t VALUES (1)")
        database.execute("SELECT * FROM t")  # warm
        stats = explain_analyze(database, "SELECT * FROM t")
        assert stats.page_misses == 0
        assert stats.page_hits > 0


class TestExecutionStats:
    def test_operator_actuals_recorded(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER)")
        for i in range(7):
            database.execute("INSERT INTO t VALUES (?)", [i])
        stats = explain_analyze(database, "SELECT id FROM t")
        assert stats.rows_returned == 7
        # root ProjectOp emitted exactly the returned rows
        assert any(
            entry.rows_out == 7 for entry in stats.operators.values()
        )
        assert stats.elapsed_s > 0

    def test_as_dict_round_trip(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER)")
        payload = explain_analyze(database, "SELECT * FROM t").as_dict()
        assert payload["rows_returned"] == 0
        assert set(payload) >= {
            "elapsed_s", "page_hits", "page_misses", "index_probes",
        }


class TestTranslationTrace:
    def test_trace_counts_ctes_and_templates(self):
        store = small_store()
        store.translate("g.V.out('knows').name")
        trace = current().trace
        assert trace.cte_count >= 3
        assert any("g.V start" in event for event in trace.events)
        assert any("property(name)" in event for event in trace.events)

    def test_graphquery_merge_counted(self):
        store = small_store()
        store.translate("g.V.has('name', 'v1')")
        assert current().trace.graphquery_merges >= 1

    def test_loop_unroll_counted(self):
        store = small_store()
        store.translate("g.V.out('knows').loop(1){it.loops < 3}.name")
        trace = current().trace
        assert trace.loop_unrolls == 1
        assert any("unrolled" in event for event in trace.events)

    def test_describe_mentions_cte_count(self):
        store = small_store()
        store.translate("g.V.name")
        description = current().trace.describe()
        assert "CTE" in description.splitlines()[0]


class TestStoreQueryStats:
    def test_last_query_stats_populated(self):
        store = small_store()
        values = store.run("g.V.out('knows').name")
        stats = store.last_query_stats
        assert stats.gremlin == "g.V.out('knows').name"
        assert stats.rows_returned == len(values)
        assert stats.translate_s > 0
        assert stats.elapsed_s >= stats.translate_s
        assert stats.trace is not None
        assert stats.execution.page_hits + stats.execution.page_misses > 0

    def test_page_cache_deltas_per_query(self):
        store = small_store()
        store.run("g.V.name")  # warm
        store.run("g.V.name")
        execution = store.last_query_stats.execution
        assert execution.page_misses == 0
        assert execution.page_hits > 0

    def test_explain_analyze_of_translated_query(self):
        store = small_store()
        sql = store.translate("g.V.out('knows').name")
        execution = explain_analyze(store.database, sql)
        assert execution.operators  # per-operator actuals present
        assert execution.cte_plans  # translated query ran through CTEs

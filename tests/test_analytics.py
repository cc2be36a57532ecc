"""Behavior of the analytics drivers and their serving/CLI surface.

The differential correctness suite lives in
``tests/test_analytics_property.py``; here we pin the *contract* around
the algorithms: live-data semantics under lazy deletes, per-run
observability, cooperative timeout/cancel, per-thread scratch databases
that leave the store untouched, the ``analytics`` server op (wire codes,
statement-timeout integration, transactions) and the ``:pagerank``-family
shell commands.
"""

import json
import threading

import pytest

from repro.cli import build_store, execute_line
from repro.client import SQLGraphClient
from repro.core import SQLGraphStore
from repro.datasets.random_graphs import (
    analytics_case_graph,
    analytics_scale_graph,
    random_property_graph,
)
from repro.datasets.tinker import paper_figure_graph
from repro.graph.analytics import (
    AnalyticsCancelledError,
    AnalyticsError,
    AnalyticsTimeoutError,
    GraphAnalytics,
    scratch_database,
)
from repro.server import SQLGraphServer
from repro.server.protocol import WireError
from tests.analytics_oracle import (
    oracle_components,
    oracle_label_propagation,
    oracle_pagerank,
)


def _loaded_store(graph):
    store = SQLGraphStore()
    store.load_graph(graph)
    return store


def _footprint(store):
    """What a run must leave as it was: the store's catalog and epoch."""
    return store.database.catalog.table_names(), store.database.schema_epoch


# ----------------------------------------------------------------------
# live-data semantics
# ----------------------------------------------------------------------
def test_analytics_exclude_lazy_deleted_vertices_and_dangling_edges():
    graph = paper_figure_graph()
    store = _loaded_store(graph)
    store.remove_vertex(3)  # lazy delete: vid negated, edges dangle
    mutated = graph.copy()
    mutated.remove_vertex(3)
    assert store.connected_components() == oracle_components(mutated)
    ranks = store.pagerank(tolerance=0.0, max_iterations=8)
    expected = oracle_pagerank(mutated, tolerance=0.0, max_iterations=8)
    assert set(ranks) == set(expected) and 3 not in ranks
    for vid, value in expected.items():
        assert ranks[vid] == pytest.approx(value, abs=1e-9)


def test_analytics_exclude_lazy_deleted_edges():
    graph = paper_figure_graph()
    store = _loaded_store(graph)
    victim = next(edge.id for edge in graph.edges())
    store.remove_edge(victim)
    mutated = graph.copy()
    mutated.remove_edge(victim)
    assert store.connected_components() == oracle_components(mutated)


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
def test_run_stats_record_iterations_and_options():
    store = _loaded_store(random_property_graph(seed=5, n_vertices=15))
    store.pagerank(damping=0.9, tolerance=0.0, max_iterations=4)
    stats = store.last_analytics_stats
    assert stats.algorithm == "pagerank"
    assert stats.options["damping"] == 0.9
    assert stats.iteration_count == 4 and not stats.converged
    assert stats.result_rows == 15
    assert stats.statements_executed > stats.iteration_count
    for i, entry in enumerate(stats.iterations, start=1):
        assert entry["iteration"] == i
        assert entry["rows"] == 15
        assert entry["delta"] >= 0.0
        assert entry["elapsed_s"] >= 0.0
    json.dumps(stats.as_dict())  # the server op ships this verbatim
    assert "pagerank" in stats.describe()


def test_run_stats_name_the_slowest_statement_shape():
    store = _loaded_store(random_property_graph(seed=5, n_vertices=15))
    store.label_propagation(max_iterations=3)
    first = store.last_analytics_stats
    store.label_propagation(max_iterations=3)
    stats = store.last_analytics_stats
    statements = stats.as_dict()["statements"]
    # every statement is accounted for under exactly one shape
    assert sum(entry["count"] for entry in statements) == (
        stats.statements_executed
    )
    elapsed = [entry["elapsed_s"] for entry in statements]
    assert elapsed == sorted(elapsed, reverse=True)
    assert sum(elapsed) <= stats.elapsed_s
    # shapes are the statement texts: they repeat across runs and name
    # each scratch table by algorithm and role
    shapes = {entry["shape"]: entry["count"] for entry in statements}
    assert shapes == {
        shape: count for shape, count, __ in first.slowest_statements()
    }
    assert shapes[
        "INSERT INTO labelprop_counts SELECT vid, val, COUNT(*) "
        "FROM labelprop_stage GROUP BY vid, val"
    ] == stats.iteration_count


def test_stats_are_per_algorithm_and_thread_local_property_updates():
    store = _loaded_store(paper_figure_graph())
    store.connected_components()
    assert store.last_analytics_stats.algorithm == "components"
    store.shortest_paths(1)
    stats = store.last_analytics_stats
    assert stats.algorithm == "sssp"
    assert stats.options["source"] == 1
    assert stats.converged


# ----------------------------------------------------------------------
# cooperative timeout / cancel; the store is only read
# ----------------------------------------------------------------------
def test_time_budget_raises_and_cleans_up():
    store = _loaded_store(paper_figure_graph())
    footprint = _footprint(store)
    with pytest.raises(AnalyticsTimeoutError):
        store.pagerank(time_budget_s=-1.0)
    assert _footprint(store) == footprint
    # the interrupted run is still observable
    assert store.last_analytics_stats.algorithm == "pagerank"


def test_cancel_callback_raises_and_cleans_up():
    store = _loaded_store(paper_figure_graph())
    footprint = _footprint(store)
    calls = []

    def cancel():
        calls.append(True)
        return len(calls) > 5  # let setup start, then pull the plug

    with pytest.raises(AnalyticsCancelledError):
        store.connected_components(cancel=cancel)
    assert _footprint(store) == footprint


@pytest.mark.parametrize("after", [2, 6, 12])
def test_cancelled_run_leaves_no_rows_for_the_next(after):
    graph = paper_figure_graph()
    store = _loaded_store(graph)
    store.label_propagation(max_iterations=3)  # the thread's tables exist
    calls = []

    def cancel():
        calls.append(True)
        return len(calls) > after  # stop part-way through an iteration

    with pytest.raises(AnalyticsCancelledError):
        store.label_propagation(max_iterations=3, cancel=cancel)
    assert store.label_propagation(max_iterations=3) == (
        oracle_label_propagation(graph, max_iterations=3)
    )


def test_invalid_requests_raise_analytics_error():
    store = _loaded_store(paper_figure_graph())
    footprint = _footprint(store)
    with pytest.raises(AnalyticsError):
        store.shortest_paths(999)  # unknown source
    graph = analytics_case_graph(3)
    for edge in graph.edges():
        edge.set_property("weight", -1.0)
    negative = _loaded_store(graph)
    negative_footprint = _footprint(negative)
    with pytest.raises(AnalyticsError):
        negative.shortest_paths(1, weight_key="weight")
    assert _footprint(store) == footprint
    assert _footprint(negative) == negative_footprint


def test_runs_leave_no_scratch_tables_and_no_epoch_churn():
    store = _loaded_store(paper_figure_graph())
    store.analyze_tables()
    footprint = _footprint(store)
    epoch = store.database.schema_epoch
    store.pagerank(max_iterations=3)
    store.label_propagation(max_iterations=3)
    # the runs wrote only the thread's scratch database: the store's
    # catalog, plans and ANALYZE statistics are as they were
    assert _footprint(store) == footprint
    assert store.database.statistics.get("va", epoch) is not None
    assert "pagerank_rank" in scratch_database().catalog.table_names()


def test_concurrent_runs_use_distinct_scratch_names():
    graph = analytics_scale_graph(60, 240, seed=13)
    store = _loaded_store(graph)
    analytics = GraphAnalytics(store.database, store.schema.table_names)
    runs = {
        "pagerank": (
            lambda: analytics.pagerank(tolerance=0.0, max_iterations=8),
            oracle_pagerank(graph, tolerance=0.0, max_iterations=8),
        ),
        "labelprop": (
            lambda: analytics.label_propagation(max_iterations=5),
            oracle_label_propagation(graph, max_iterations=5),
        ),
    }
    results, databases = {}, {}
    start = threading.Barrier(len(runs), timeout=60)

    def worker(name, run):
        start.wait()
        for __ in range(3):
            results.setdefault(name, []).append(run())
        databases[name] = scratch_database()

    threads = [
        threading.Thread(target=worker, args=(name, run))
        for name, (run, __) in runs.items()
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
        assert not thread.is_alive()
    # each thread ran in a scratch database of its own
    assert databases["pagerank"] is not databases["labelprop"]
    assert databases["pagerank"] is not scratch_database()
    for name, (__, expected) in runs.items():
        assert len(results[name]) == 3, name
        for result in results[name]:
            assert result.keys() == expected.keys(), name
            for vid, value in expected.items():
                assert result[vid] == pytest.approx(value, abs=1e-9), name


def test_warm_rerun_compiles_nothing():
    # changing values are bound ``?`` parameters and a finished run keeps
    # the thread's scratch tables, so a second run finds every statement
    # prepared and every plan cached: in the scratch database the
    # iterations run on, and in the store's cache for the two reads
    store = _loaded_store(analytics_scale_graph(60, 240, seed=13))
    runs = {
        "pagerank": lambda: store.pagerank(tolerance=0.0, max_iterations=3),
        "components": store.connected_components,
        "labelprop": lambda: store.label_propagation(max_iterations=3),
        "sssp": lambda: store.shortest_paths(1, weight_key="weight"),
    }
    for name, run in runs.items():
        run()  # cold
        caches = (scratch_database().plan_cache, store.database.plan_cache)
        before = [dict(cache.stats()) for cache in caches]
        run()  # warm
        assert caches[0] is scratch_database().plan_cache, name
        for cache, stats in zip(caches, before):
            after = cache.stats()
            assert after["misses"] == stats["misses"], name
            assert after["hits"] > stats["hits"], name


# ----------------------------------------------------------------------
# server op + client wrappers
# ----------------------------------------------------------------------
@pytest.fixture()
def server_client():
    store = _loaded_store(random_property_graph(seed=9, n_vertices=20))
    server = SQLGraphServer(store, port=0)
    server.start()
    client = SQLGraphClient(port=server.port, retries=0)
    client.connect()
    yield server, client, store
    client.close()
    server.shutdown()


def test_analytics_over_the_wire_matches_embedded(server_client):
    server, client, store = server_client
    embedded = store.pagerank(tolerance=0.0, max_iterations=6)
    remote = client.pagerank(tolerance=0.0, max_iterations=6)
    assert remote == embedded  # int keys restored from wire pairs
    assert client.last_analytics_stats["algorithm"] == "pagerank"
    assert client.last_analytics_stats["iteration_count"] == 6
    assert client.connected_components() == store.connected_components()
    assert client.label_propagation() == store.label_propagation()
    source = min(embedded)
    assert client.shortest_paths(source) == store.shortest_paths(source)


def test_analytics_wire_validation(server_client):
    __, client, __store = server_client
    with pytest.raises(WireError) as excinfo:
        client.analytics("betweenness")
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(WireError) as excinfo:
        client.analytics("pagerank", bogus=1)
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(WireError) as excinfo:
        client.analytics("sssp")  # missing source
    assert excinfo.value.code == "BAD_REQUEST"
    with pytest.raises(WireError) as excinfo:
        client.shortest_paths(10**9)
    assert excinfo.value.code == "BAD_REQUEST"
    assert not excinfo.value.retryable


def test_served_rollback_after_analytics_undoes_the_transaction(
        server_client):
    __, client, store = server_client
    vertices = store.vertex_count()
    client.begin()
    client.crud("add_vertex", vertex_id=1000, properties={"name": "tmp"})
    ranks = client.pagerank(max_iterations=2)
    assert 1000 in ranks  # the run sees its own transaction
    client.rollback()
    assert store.get_vertex(1000) is None
    assert store.vertex_count() == vertices
    assert 1000 not in client.pagerank(max_iterations=2)


def test_analytics_statement_timeout_maps_to_wire_code(server_client):
    server, client, __store = server_client
    client.set_statement_timeout(0)
    with pytest.raises(WireError) as excinfo:
        client.pagerank()
    assert excinfo.value.code == "STATEMENT_TIMEOUT"
    assert excinfo.value.retryable
    assert server.stats()["statement_timeouts"] >= 1
    client.set_statement_timeout(None)
    assert len(client.pagerank(max_iterations=2)) == 20


# ----------------------------------------------------------------------
# shell commands
# ----------------------------------------------------------------------
def test_cli_analytics_commands():
    store = build_store("tinker")
    out = execute_line(store, ":pagerank")
    assert "v[" in out and "pagerank:" in out and "iterations" in out
    out = execute_line(store, ":components")
    assert "component" in out and "components:" in out
    out = execute_line(store, ":labelprop")
    assert "community" in out
    out = execute_line(store, ":sssp 1 weight")
    assert "v[1]  0" in out and "sssp:" in out
    assert "usage" in execute_line(store, ":sssp")
    assert "usage" in execute_line(store, ":sssp notanumber")
    assert "cannot run sssp" in execute_line(store, ":sssp 999")
    for command in (":pagerank", ":components", ":labelprop", ":sssp"):
        assert command in execute_line(store, ":help")

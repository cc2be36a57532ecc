"""Behavior of the analytics drivers and their serving/CLI surface.

The differential correctness suite lives in
``tests/test_analytics_property.py``; here we pin the *contract* around
the algorithms: live-data semantics under lazy deletes, per-run
observability, cooperative timeout/cancel, scratch-table hygiene, the
``analytics`` server op (wire codes, statement-timeout integration) and
the ``:pagerank``-family shell commands.
"""

import json

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
)
from repro.server import SQLGraphServer
from repro.server.protocol import WireError
from tests.analytics_oracle import oracle_components, oracle_pagerank


def _loaded_store(graph):
    store = SQLGraphStore()
    store.load_graph(graph)
    return store


def _scratch_tables(store):
    return [
        name for name in store.database.catalog.table_names()
        if name.startswith("scratch_")
    ]


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
    # the scratch token is stripped: shapes repeat across runs and name
    # the scratch table by role alone
    shapes = {entry["shape"]: entry["count"] for entry in statements}
    assert shapes == {
        shape: count for shape, count, __ in first.slowest_statements()
    }
    assert shapes[
        "INSERT INTO scratch_counts SELECT vid, val, COUNT(*) "
        "FROM scratch_stage GROUP BY vid, val"
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
# cooperative timeout / cancel + scratch hygiene
# ----------------------------------------------------------------------
def test_time_budget_raises_and_cleans_up():
    store = _loaded_store(paper_figure_graph())
    with pytest.raises(AnalyticsTimeoutError):
        store.pagerank(time_budget_s=-1.0)
    assert _scratch_tables(store) == []
    # the interrupted run is still observable
    assert store.last_analytics_stats.algorithm == "pagerank"


def test_cancel_callback_raises_and_cleans_up():
    store = _loaded_store(paper_figure_graph())
    calls = []

    def cancel():
        calls.append(True)
        return len(calls) > 5  # let setup start, then pull the plug

    with pytest.raises(AnalyticsCancelledError):
        store.connected_components(cancel=cancel)
    assert _scratch_tables(store) == []


def test_invalid_requests_raise_analytics_error():
    store = _loaded_store(paper_figure_graph())
    with pytest.raises(AnalyticsError):
        store.shortest_paths(999)  # unknown source
    graph = analytics_case_graph(3)
    for edge in graph.edges():
        edge.set_property("weight", -1.0)
    negative = _loaded_store(graph)
    with pytest.raises(AnalyticsError):
        negative.shortest_paths(1, weight_key="weight")
    assert _scratch_tables(store) == [] and _scratch_tables(negative) == []


def test_runs_leave_no_scratch_tables_and_no_epoch_churn():
    store = _loaded_store(paper_figure_graph())
    store.analyze_tables()
    epoch = store.database.schema_epoch
    store.pagerank(max_iterations=3)
    store.label_propagation(max_iterations=3)
    assert _scratch_tables(store) == []
    # scratch DDL is epoch-neutral: plans and ANALYZE statistics survive
    assert store.database.schema_epoch == epoch
    assert store.database.statistics.get("va", epoch) is not None


def test_concurrent_runs_use_distinct_scratch_names():
    store = _loaded_store(paper_figure_graph())
    analytics = GraphAnalytics(store.database, store.schema.table_names)
    first = analytics.pagerank(max_iterations=2)
    second = analytics.pagerank(max_iterations=2)
    assert first == second
    # token monotonicity is what keeps parallel sessions collision-free
    assert _scratch_tables(store) == []


def test_warm_rerun_compiles_nothing():
    # changing values are bound ``?`` parameters and a finished run hands
    # its scratch-name token back, so every statement shape of a second
    # run is already in the prepared-statement cache
    store = _loaded_store(analytics_scale_graph(60, 240, seed=13))
    cache = store.database.plan_cache
    runs = {
        "pagerank": lambda: store.pagerank(tolerance=0.0, max_iterations=3),
        "components": store.connected_components,
        "labelprop": lambda: store.label_propagation(max_iterations=3),
        "sssp": lambda: store.shortest_paths(1, weight_key="weight"),
    }
    for name, run in runs.items():
        run()  # cold
        before = dict(cache.stats())
        run()  # warm
        after = cache.stats()
        assert after["misses"] == before["misses"], name
        assert after["hits"] > before["hits"], name


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

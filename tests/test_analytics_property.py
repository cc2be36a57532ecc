"""Differential tests: SQL analytics drivers vs pure-python oracles.

Every case loads one graph from the shared deterministic generator
(:func:`repro.datasets.random_graphs.analytics_case_graph`) into a fresh
store and checks all four algorithms against :mod:`tests.analytics_oracle`:

* **components** / **label propagation** — exact equality, including the
  smallest-label tie-break;
* **SSSP** — exact for unweighted runs; weighted runs must agree with an
  *algorithmically different* oracle (Dijkstra vs the driver's frontier
  Bellman-Ford) to float-association error, over identical reachable
  sets;
* **PageRank** — run with ``tolerance=0.0`` and a fixed iteration count
  so both sides execute the same number of power iterations, then
  compared to 1e-9 (SQL aggregation order vs python sum order).

The case list starts with degenerate shapes (empty graph, single vertex,
self-loop, parallel edges, disconnected components) and continues with
200+ seeded random multigraphs.
"""

import pytest

from repro.core import SQLGraphStore
from repro.datasets.random_graphs import (
    ANALYTICS_EDGE_CASES,
    analytics_case_graph,
)
from tests.analytics_oracle import (
    oracle_components,
    oracle_label_propagation,
    oracle_pagerank,
    oracle_sssp,
)

#: ≥200 generated graphs, the first ANALYTICS_EDGE_CASES of them fixed
#: degenerate shapes
CASES = 210

#: fixed power-iteration count for the exact-mirror PageRank comparison
PAGERANK_ITERATIONS = 12


def _loaded_store(graph):
    store = SQLGraphStore()
    store.load_graph(graph)
    return store


@pytest.mark.parametrize("case", range(CASES))
def test_analytics_agree_with_oracles(case):
    graph = analytics_case_graph(case)
    store = _loaded_store(graph)

    ranks = store.pagerank(tolerance=0.0, max_iterations=PAGERANK_ITERATIONS)
    expected_ranks = oracle_pagerank(
        graph, tolerance=0.0, max_iterations=PAGERANK_ITERATIONS
    )
    assert set(ranks) == set(expected_ranks)
    for vid, expected in expected_ranks.items():
        assert ranks[vid] == pytest.approx(expected, abs=1e-9)

    assert store.connected_components() == oracle_components(graph)
    assert store.label_propagation() == oracle_label_propagation(graph)

    vids = sorted(vertex.id for vertex in graph.vertices())
    if vids:
        source = vids[case % len(vids)]  # vary the source across cases
        assert store.shortest_paths(source) == oracle_sssp(graph, source)
        distances = store.shortest_paths(source, weight_key="weight")
        expected_distances = oracle_sssp(graph, source, weight_key="weight")
        assert set(distances) == set(expected_distances)
        for vid, expected in expected_distances.items():
            assert distances[vid] == pytest.approx(expected, abs=1e-9)


def test_edge_cases_cover_the_degenerate_shapes():
    """The fixed prefix of the case list is what it claims to be."""
    assert analytics_case_graph(0).vertex_count() == 0
    single = analytics_case_graph(1)
    assert (single.vertex_count(), single.edge_count()) == (1, 0)
    loop = analytics_case_graph(2)
    assert (loop.vertex_count(), loop.edge_count()) == (1, 1)
    parallel = analytics_case_graph(3)
    assert parallel.edge_count() == 3
    pairs = {
        (edge.out_vertex.id, edge.in_vertex.id) for edge in parallel.edges()
    }
    assert pairs == {(1, 2), (2, 1)}  # parallel edges, both directions
    triangles = analytics_case_graph(4)
    assert len(set(oracle_components(triangles).values())) == 2
    assert CASES - ANALYTICS_EDGE_CASES >= 200


@pytest.mark.parametrize("case", [4, 8, 9, 42, 77])
def test_pagerank_convergence_path_matches_oracle(case):
    """The tolerance-triggered early exit lands near the oracle too."""
    graph = analytics_case_graph(case)
    store = _loaded_store(graph)
    ranks = store.pagerank(tolerance=1e-10, max_iterations=200)
    expected = oracle_pagerank(graph, tolerance=1e-10, max_iterations=200)
    assert store.last_analytics_stats.converged
    for vid, value in expected.items():
        assert ranks[vid] == pytest.approx(value, abs=1e-6)
    assert sum(ranks.values()) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("case", range(ANALYTICS_EDGE_CASES, 40))
def test_sssp_source_variation(case):
    """Every live vertex works as a source, not just the smallest."""
    graph = analytics_case_graph(case)
    store = _loaded_store(graph)
    vids = sorted(vertex.id for vertex in graph.vertices())
    for source in vids[:3] + vids[-2:]:
        assert store.shortest_paths(source) == oracle_sssp(graph, source)

"""Random property graphs for differential and property-based testing."""

from __future__ import annotations

import random

from repro.graph.model import PropertyGraph

DEFAULT_LABELS = ("knows", "created", "likes", "follows", "rated")
DEFAULT_KEYS = ("name", "age", "lang", "score")


def random_property_graph(seed=0, n_vertices=30, n_edges=60,
                          labels=DEFAULT_LABELS, keys=DEFAULT_KEYS,
                          allow_multi_edges=True):
    """Generate a random property graph with string/int attributes."""
    rng = random.Random(seed)
    graph = PropertyGraph()
    for vertex_id in range(1, n_vertices + 1):
        properties = {}
        if rng.random() < 0.9:
            properties["name"] = f"n{rng.randrange(n_vertices * 2)}"
        if rng.random() < 0.7:
            properties["age"] = rng.randrange(18, 80)
        if rng.random() < 0.3:
            properties["lang"] = rng.choice(["java", "python", "go"])
        if rng.random() < 0.4:
            properties["score"] = round(rng.uniform(0, 10), 2)
        graph.add_vertex(vertex_id, properties)
    edge_id = n_vertices + 1
    seen_pairs = set()
    attempts = 0
    while graph.edge_count() < n_edges and attempts < n_edges * 20:
        attempts += 1
        src = rng.randrange(1, n_vertices + 1)
        dst = rng.randrange(1, n_vertices + 1)
        label = rng.choice(labels)
        if not allow_multi_edges and (src, dst, label) in seen_pairs:
            continue
        seen_pairs.add((src, dst, label))
        properties = {"weight": round(rng.uniform(0, 1), 3)}
        if rng.random() < 0.3:
            properties["since"] = rng.randrange(2000, 2020)
        graph.add_edge(src, dst, label, edge_id, properties)
        edge_id += 1
    return graph


# ----------------------------------------------------------------------
# analytics graph cases (shared by the tests and the perf ledger's
# analytics workload so both drive the same distribution)
# ----------------------------------------------------------------------
#: hand-picked degenerate structures every analytics algorithm must
#: survive; cases 5+ are seeded random graphs
ANALYTICS_EDGE_CASES = 5


def analytics_case_graph(case, max_vertices=20, max_edges=40):
    """Deterministic graph #*case* for analytics differential testing.

    Cases 0-4 are fixed degenerate shapes (empty graph, single vertex,
    self-loop, parallel edges in both directions, two disconnected
    triangles); higher cases are seeded random graphs with self-loops,
    parallel edges and isolated vertices.  Every edge carries a positive
    ``weight`` float property.
    """
    graph = PropertyGraph()
    if case == 0:
        return graph  # empty
    if case == 1:
        graph.add_vertex(1, {"name": "lonely"})
        return graph  # single vertex, no edges
    if case == 2:
        graph.add_vertex(1, {})
        graph.add_edge(1, 1, "self", 2, {"weight": 0.5})
        return graph  # single vertex with a self-loop
    if case == 3:
        graph.add_vertex(1, {})
        graph.add_vertex(2, {})
        graph.add_edge(1, 2, "a", 3, {"weight": 1.0})
        graph.add_edge(1, 2, "b", 4, {"weight": 2.0})
        graph.add_edge(2, 1, "a", 5, {"weight": 0.25})
        return graph  # parallel edges, both directions
    if case == 4:
        for vid in range(1, 7):
            graph.add_vertex(vid, {})
        eid = 7
        for base in (1, 4):  # two disconnected triangles
            for offset in range(3):
                src = base + offset
                dst = base + (offset + 1) % 3
                graph.add_edge(src, dst, "ring", eid, {"weight": 1.0})
                eid += 1
        return graph
    rng = random.Random(case)
    n_vertices = rng.randrange(1, max_vertices + 1)
    # density varies from near-empty (isolated vertices) to multigraph
    n_edges = rng.randrange(0, max_edges + 1)
    for vid in range(1, n_vertices + 1):
        graph.add_vertex(vid, {})
    eid = n_vertices + 1
    for __ in range(n_edges):
        src = rng.randrange(1, n_vertices + 1)
        dst = src if rng.random() < 0.1 else rng.randrange(1, n_vertices + 1)
        graph.add_edge(
            src, dst, rng.choice(("a", "b")), eid,
            {"weight": round(rng.uniform(0.1, 5.0), 3)},
        )
        eid += 1
    return graph


def analytics_scale_graph(n_vertices, n_edges, seed=0):
    """A LinkBench-flavoured power-law-ish graph for analytics benchmarks.

    Preferential attachment by sampling the endpoint of a random earlier
    edge: cheap, deterministic, and produces the skewed degree
    distribution bulk analytics care about.  Weighted like
    :func:`analytics_case_graph`.
    """
    rng = random.Random(seed)
    graph = PropertyGraph()
    for vid in range(1, n_vertices + 1):
        graph.add_vertex(vid, {})
    endpoints = []
    eid = n_vertices + 1
    for __ in range(n_edges):
        if endpoints and rng.random() < 0.6:
            src = endpoints[rng.randrange(len(endpoints))]
        else:
            src = rng.randrange(1, n_vertices + 1)
        if endpoints and rng.random() < 0.3:
            dst = endpoints[rng.randrange(len(endpoints))]
        else:
            dst = rng.randrange(1, n_vertices + 1)
        graph.add_edge(
            src, dst, "link", eid,
            {"weight": round(rng.uniform(0.1, 5.0), 3)},
        )
        endpoints.append(src)
        endpoints.append(dst)
        eid += 1
    return graph

"""In-harness oracles for the analytics workload.

Each consumes the source ``PropertyGraph`` (never the store), so an
engine bug cannot leak into the expected values, and each is a different
algorithm from the product's iterated-SQL driver where one exists:
union-find against min-label flooding, heap Dijkstra against frontier
Bellman-Ford.  PageRank and label propagation have one definition each
(docs/ANALYTICS.md), so their oracles restate the update rule in plain
Python.
"""

from __future__ import annotations

import heapq


def _arrays(graph):
    vertices = sorted(vertex.id for vertex in graph.vertices())
    edges = [(edge.out_vertex.id, edge.in_vertex.id)
             for edge in graph.edges()]
    return vertices, edges


def components(graph):
    """Weakly-connected components by union-find; the component id is
    its smallest member, as the product labels them."""
    vertices, edges = _arrays(graph)
    parent = {vid: vid for vid in vertices}

    def find(vid):
        root = vid
        while parent[root] != root:
            root = parent[root]
        while parent[vid] != root:
            parent[vid], vid = root, parent[vid]
        return root

    for src, dst in edges:
        a, b = find(src), find(dst)
        if a != b:
            # the smaller id stays root, so roots are component minima
            parent[max(a, b)] = min(a, b)
    return {vid: find(vid) for vid in vertices}


def shortest_paths(graph, source):
    """Directed unit-weight distances from *source* (Dijkstra, binary
    heap); reachable vertices only, like the product."""
    __, edges = _arrays(graph)
    outgoing = {}
    for src, dst in edges:
        outgoing.setdefault(src, []).append(dst)
    distances = {}
    heap = [(0.0, source)]
    while heap:
        distance, vid = heapq.heappop(heap)
        if vid in distances:
            continue
        distances[vid] = distance
        for nxt in outgoing.get(vid, ()):
            if nxt not in distances:
                heapq.heappush(heap, (distance + 1.0, nxt))
    return distances


def pagerank(graph, iterations, damping=0.85):
    """A fixed number of power-iteration steps with dangling mass spread
    uniformly; agrees with the product to float re-association error."""
    vertices, edges = _arrays(graph)
    n = len(vertices)
    out_degree = {}
    for src, __ in edges:
        out_degree[src] = out_degree.get(src, 0) + 1
    rank = {vid: 1.0 / n for vid in vertices}
    for __ in range(iterations):
        contribution = dict.fromkeys(vertices, 0.0)
        for src, dst in edges:
            contribution[dst] += rank[src] / out_degree[src]
        dangling = sum(rank[vid] for vid in vertices
                       if vid not in out_degree)
        rank = {
            vid: (1.0 - damping) / n
            + damping * (contribution[vid] + dangling / n)
            for vid in vertices
        }
    return rank


def label_propagation(graph, iterations):
    """Synchronous label propagation: each vertex votes for its own
    label and receives one vote per incident edge from the other end;
    the most voted label wins, the smallest on ties.  All-integer, so
    the product must match exactly."""
    vertices, edges = _arrays(graph)
    labels = {vid: vid for vid in vertices}
    for __ in range(iterations):
        votes = {vid: {labels[vid]: 1} for vid in vertices}
        for src, dst in edges:
            for voter, target in ((src, dst), (dst, src)):
                tally = votes[target]
                tally[labels[voter]] = tally.get(labels[voter], 0) + 1
        updated = {}
        for vid, tally in votes.items():
            best = max(tally.values())
            updated[vid] = min(label for label, count in tally.items()
                               if count == best)
        if updated == labels:
            break
        labels = updated
    return labels

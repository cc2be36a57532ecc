"""Sharded serving vs the single-store oracle.

The contract under test: a hash-partitioned cluster behind the
scatter-gather router returns *exactly* the results of one embedded
:class:`SQLGraphStore` holding the whole graph — over the golden Gremlin
corpus, the differential query templates, random multi-hop pipelines on
random graphs, and interleaved CRUD.  Clusters are in-process
(:class:`SQLGraphServer` worker per shard, real TCP loopback) so the
full wire path runs without subprocess cost.
"""

import contextlib
from collections import Counter

import pytest

from repro.core import SQLGraphStore
from repro.datasets.random_graphs import random_property_graph
from repro.datasets.tinker import paper_figure_graph, tinkerpop_classic
from repro.gremlin import parse_gremlin
from repro.server import SQLGraphServer
from repro.sharding import ShardedStore, partition_graph, shard_of
from repro.sharding.partition import owner_groups
from repro.sharding.router import single_shard_index
from tests.corpus import golden_corpus
from tests.test_differential import QUERY_TEMPLATES


@contextlib.contextmanager
def cluster(graph, num_shards):
    """An in-process cluster: one server per hash-partition."""
    servers = []
    addresses = []
    try:
        for subgraph in partition_graph(graph, num_shards):
            store = SQLGraphStore()
            store.load_graph(subgraph)
            server = SQLGraphServer(store, port=0, max_workers=4).start()
            servers.append(server)
            addresses.append((server.host, server.port))
        sharded = ShardedStore.connect(addresses)
        try:
            yield sharded
        finally:
            sharded.close()
    finally:
        for server in servers:
            server.shutdown(drain_timeout_s=1.0)


def normalize(values):
    """Results -> comparable multiset (both sides return plain values)."""
    return sorted(
        repr(list(value) if isinstance(value, (list, tuple)) else value)
        for value in values
    )


def assert_matches_oracle(oracle, sharded, query):
    want = normalize(oracle.run(query))
    got = normalize(sharded.run(query))
    assert got == want, f"{query}: sharded {got} != oracle {want}"


# ---------------------------------------------------------------------------
# partitioning
# ---------------------------------------------------------------------------
class TestPartition:
    def test_shard_of_is_total_and_stable(self):
        for vid in range(0, 5000, 7):
            owners = [shard_of(vid, n) for n in (1, 2, 3, 8)]
            assert owners[0] == 0
            for n, owner in zip((1, 2, 3, 8), owners):
                assert 0 <= owner < n
                # same vid, same modulus -> same owner, every time
                assert shard_of(vid, n) == owner

    def test_shard_of_spreads_consecutive_ids(self):
        # the multiplicative hash must not map consecutive vids to one
        # shard (plain vid % n would, for strided id ranges)
        owners = {shard_of(vid, 4) for vid in range(1, 9)}
        assert len(owners) > 1
        # and no shard owns more than half of a run of 600 ids
        counts = Counter(shard_of(vid, 4) for vid in range(1, 601))
        assert max(counts.values()) <= 300

    def test_owner_groups_dedups_and_keeps_first_seen_order(self):
        vids = [10, 3, 10, 7, 3, 21]
        groups = owner_groups(vids, 2)
        flattened = [vid for batch in groups.values() for vid in batch]
        assert sorted(flattened) == sorted(set(vids))
        for index, batch in groups.items():
            assert all(shard_of(vid, 2) == index for vid in batch)

    @pytest.mark.parametrize("num_shards", [1, 2, 3, 5])
    def test_partition_covers_graph_exactly_once(self, num_shards):
        graph = tinkerpop_classic()
        shards = partition_graph(graph, num_shards)
        assert len(shards) == num_shards

        seen_vids = []
        seen_eids = []
        for index, shard in enumerate(shards):
            for vertex in shard.vertices():
                assert shard_of(vertex.id, num_shards) == index
                seen_vids.append(vertex.id)
            for edge in shard.edges():
                # edges live with the shard owning their source vertex
                assert shard_of(edge.out_vertex.id, num_shards) == index
                seen_eids.append(edge.id)
        assert sorted(seen_vids) == sorted(v.id for v in graph.vertices())
        assert sorted(seen_eids) == sorted(e.id for e in graph.edges())

    def test_partition_preserves_properties_and_endpoints(self):
        graph = paper_figure_graph()
        shards = partition_graph(graph, 3)
        originals = {v.id: v for v in graph.vertices()}
        for shard in shards:
            for vertex in shard.vertices():
                original = originals[vertex.id]
                for key in original.property_keys():
                    assert vertex.get_property(key) == \
                        original.get_property(key)
            for edge in shard.edges():
                # the in-vertex may be a ghost, but its id must be right
                original_edge = next(
                    e for e in graph.edges() if e.id == edge.id
                )
                assert edge.in_vertex.id == original_edge.in_vertex.id
                assert edge.label == original_edge.label


# ---------------------------------------------------------------------------
# routing decisions
# ---------------------------------------------------------------------------
class TestRouting:
    @pytest.mark.parametrize("query,forwardable", [
        ("g.v(1).name", True),
        ("g.v(1).has('age', T.gt, 10).age", True),
        ("g.v(1).id", True),
        ("g.v(1).out.name", False),       # adjacency leaves the shard
        ("g.v(1).outE.label", True),      # out-edges live with their source
        ("g.v(1).outE('knows').count()", True),
        ("g.v(1).inE", False),            # in-edges may live on any shard
        ("g.v(1).outE.inV.name", False),  # the head vertex may not
        ("g.V.name", False),              # whole-graph scan
        ("g.v(1).out.loop(1){it.loops < 2}", False),
    ])
    def test_single_shard_detection(self, query, forwardable):
        index = single_shard_index(parse_gremlin(query), 4)
        assert (index is not None) == forwardable

    def test_multi_seed_same_owner_forwards(self):
        vids = [vid for vid in range(1, 100)
                if shard_of(vid, 2) == shard_of(1, 2)][:3]
        text = f"g.v({', '.join(map(str, vids))}).name"
        assert single_shard_index(parse_gremlin(text), 2) == shard_of(1, 2)

    def test_split_seeds_do_not_forward(self):
        other = next(vid for vid in range(2, 100)
                     if shard_of(vid, 2) != shard_of(1, 2))
        assert single_shard_index(
            parse_gremlin(f"g.v(1, {other}).name"), 2
        ) is None

    def test_query_stats_report_routing(self):
        with cluster(paper_figure_graph(), 2) as sharded:
            sharded.run("g.v(1).name")
            stats = sharded.last_query_stats.as_dict()["sharding"]
            assert stats["mode"] == "forward"
            assert stats["target_shard"] == shard_of(1, 2)

            # seeded multi-hop: each step resolves a fresh frontier
            sharded.run("g.v(1).out.out.name")
            stats = sharded.last_query_stats.as_dict()["sharding"]
            assert stats["mode"] == "scatter"
            assert stats["shards"] == 2
            assert stats["target_shard"] is None
            assert stats["hops"] == 2
            assert stats["requests"] >= stats["hops"]

    def test_edge_ids_fetched_in_one_broadcast(self):
        oracle = SQLGraphStore()
        oracle.load_graph(paper_figure_graph())
        with cluster(paper_figure_graph(), 2) as sharded:
            # sources on both shards, plus an id that matches nothing
            for query in ("g.e(7, 10, 11)", "g.e(11, 7, 99).label"):
                assert_matches_oracle(oracle, sharded, query)
                stats = sharded.last_query_stats.sharding
                assert stats["mode"] == "scatter"
                assert stats["requests"] == 1


# ---------------------------------------------------------------------------
# differential: sharded == oracle
# ---------------------------------------------------------------------------
class TestDifferential:
    @pytest.mark.parametrize("num_shards", [2, 3])
    def test_golden_corpus_on_paper_graph(self, num_shards):
        graph = paper_figure_graph()
        oracle = SQLGraphStore()
        oracle.load_graph(paper_figure_graph())
        with cluster(graph, num_shards) as sharded:
            for name, query in sorted(golden_corpus().items()):
                assert_matches_oracle(oracle, sharded, query)

    def test_query_templates_on_classic_graph(self):
        graph = tinkerpop_classic()
        oracle = SQLGraphStore()
        oracle.load_graph(tinkerpop_classic())
        with cluster(graph, 2) as sharded:
            for query in QUERY_TEMPLATES:
                assert_matches_oracle(oracle, sharded, query)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_random_multihop_pipelines(self, seed):
        graph = random_property_graph(
            seed=seed, n_vertices=24, n_edges=60
        )
        oracle = SQLGraphStore()
        oracle.load_graph(
            random_property_graph(seed=seed, n_vertices=24, n_edges=60)
        )
        vids = sorted(v.id for v in graph.vertices())
        anchor = vids[seed % len(vids)]
        queries = QUERY_TEMPLATES + [
            f"g.v({anchor}).out.out.count()",
            f"g.v({anchor}).both.both.dedup().name",
            f"g.v({anchor}).outE.inV.in.count()",
            f"g.v({anchor}).out.in.out.dedup().count()",
        ]
        with cluster(graph, 3) as sharded:
            for query in queries:
                assert_matches_oracle(oracle, sharded, query)


# ---------------------------------------------------------------------------
# CRUD routed through the cluster
# ---------------------------------------------------------------------------
class TestShardedCrud:
    def test_crud_replay_matches_oracle(self):
        oracle = SQLGraphStore()
        oracle.load_graph(paper_figure_graph())
        with cluster(paper_figure_graph(), 2) as sharded:
            for store in (oracle, sharded):
                v7 = store.add_vertex(properties={"name": "grace",
                                                  "age": 51})
                assert v7 == 5
                store.add_edge(1, v7, "knows", properties={"weight": 0.9})
                store.add_edge(v7, 2, "likes")
                store.set_vertex_property(v7, "age", 52)
                store.set_vertex_property(1, "tag", "x")

            checks = [
                "g.V.count()", "g.E.count()", "g.V.name",
                "g.v(1).out('knows').name", "g.v(5).out.name",
                "g.v(5).in.name", "g.V.has('age', T.gt, 50).name",
                "g.E.label",
            ]
            for query in checks:
                assert_matches_oracle(oracle, sharded, query)

            # removal: the vertex owner differs from some in-edge owners
            for store in (oracle, sharded):
                assert store.remove_edge(12) is True  # 1-[knows]->5 above
                assert store.remove_vertex(5) is True
                assert store.remove_vertex(5) is False
            for query in checks:
                assert_matches_oracle(oracle, sharded, query)

    def test_remove_vertex_cleans_cross_shard_in_edges(self):
        graph = paper_figure_graph()
        with cluster(graph, 2) as sharded:
            # vertex 3 has in-edges from 1 and 4, which hash to both
            # shards — so at least one in-edge lives off the owner
            assert sharded.remove_vertex(3) is True
            assert sharded.get_vertex(3) is None
            remaining = {
                (edge.outv, edge.inv) for edge in sharded.edges()
            }
            assert all(3 not in pair for pair in remaining)

    def test_vertex_and_edge_getters(self):
        with cluster(paper_figure_graph(), 3) as sharded:
            vertex = sharded.get_vertex(1)
            assert vertex.get_property("name") == "marko"
            assert sharded.get_vertex(999) is None
            edge = sharded.get_edge(7)
            assert (edge.outv, edge.label, edge.inv) == (1, "knows", 2)
            assert sharded.get_edge(999) is None

    def test_explicit_ids_route_to_owner(self):
        with cluster(paper_figure_graph(), 2) as sharded:
            vid = sharded.add_vertex(vertex_id=40,
                                     properties={"name": "z"})
            assert vid == 40
            # the next auto id continues past the explicit one
            assert sharded.add_vertex(properties={"name": "y"}) == 41
            assert sharded.get_vertex(40).get_property("name") == "z"

    def test_counts_and_iteration(self):
        graph = tinkerpop_classic()
        expected_v = len(list(graph.vertices()))
        expected_e = len(list(graph.edges()))
        with cluster(tinkerpop_classic(), 3) as sharded:
            assert sharded.vertex_count() == expected_v
            assert sharded.edge_count() == expected_e
            assert len(list(sharded.vertices())) == expected_v
            assert len(list(sharded.edges())) == expected_e


# ---------------------------------------------------------------------------
# degenerate cluster shapes
# ---------------------------------------------------------------------------
class TestClusterShapes:
    def test_single_shard_cluster_is_transparent(self):
        oracle = SQLGraphStore()
        oracle.load_graph(paper_figure_graph())
        with cluster(paper_figure_graph(), 1) as sharded:
            for query in ("g.V.name", "g.v(1).out.name", "g.V.count()"):
                assert_matches_oracle(oracle, sharded, query)

    def test_more_shards_than_vertices(self):
        graph = paper_figure_graph()
        total = len(list(graph.vertices()))
        with cluster(paper_figure_graph(), total + 3) as sharded:
            assert sharded.vertex_count() == total
            oracle = SQLGraphStore()
            oracle.load_graph(paper_figure_graph())
            assert_matches_oracle(oracle, sharded, "g.V.both.count()")
            assert_matches_oracle(oracle, sharded, "g.V.out.name")

    def test_empty_frontier_short_circuits(self):
        with cluster(paper_figure_graph(), 2) as sharded:
            assert sharded.run("g.v(999).out.name") == []

    def test_health_reports_every_shard(self):
        with cluster(paper_figure_graph(), 3) as sharded:
            report = sharded.shard_health()
            assert [entry["shard"] for entry in report] == [0, 1, 2]
            assert all(entry["ok"] for entry in report)

"""Cross-cutting edge cases: index maintenance through procedures, buffer
pool vs transactions, deep structures, unusual values."""

import threading

import pytest

from repro.core import SQLGraphStore
from repro.datasets.tinker import paper_figure_graph
from repro.relational import Database
from repro.relational.pages import PAGE_CAPACITY


class TestAttributeIndexMaintenance:
    def test_store_update_refreshes_expression_index(self):
        store = SQLGraphStore()
        store.load_graph(paper_figure_graph())
        store.create_attribute_index("vertex", "name")
        assert store.run("g.V('name','marko')") == [1]
        store.set_vertex_property(1, "name", "mark")
        assert store.run("g.V('name','marko')") == []
        assert store.run("g.V('name','mark')") == [1]

    def test_new_vertex_lands_in_index(self):
        store = SQLGraphStore()
        store.load_graph(paper_figure_graph())
        store.create_attribute_index("vertex", "name")
        vid = store.add_vertex(properties={"name": "zed"})
        assert store.run("g.V('name','zed')") == [vid]

    def test_deleted_vertex_leaves_index(self):
        store = SQLGraphStore()
        store.load_graph(paper_figure_graph())
        store.create_attribute_index("vertex", "name")
        store.remove_vertex(2)
        assert store.run("g.V('name','vadas')") == []


class TestBufferPoolTransactions:
    def test_rollback_across_evictions(self):
        database = Database(buffer_pool_pages=1)
        database.execute("CREATE TABLE t (x INTEGER)")
        table = database.table("t")
        with database.scope(writes=("t",)):
            for i in range(PAGE_CAPACITY * 3):
                table.insert((i,))
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("UPDATE t SET x = -1 WHERE x < 10")
                # force eviction churn between the update and the rollback
                database.execute("SELECT COUNT(*) FROM t")
                raise RuntimeError("boom")
        assert database.execute(
            "SELECT COUNT(*) FROM t WHERE x = -1"
        ).scalar() == 0
        assert database.execute(
            "SELECT COUNT(*) FROM t WHERE x < 10 AND x >= 0"
        ).scalar() == 10

    def test_tiny_pool_store_still_correct(self):
        store = SQLGraphStore(buffer_pool_pages=1)
        store.load_graph(paper_figure_graph())
        assert store.run("g.V.count()") == [4]
        assert sorted(store.run("g.v(1).out.out.name")) == ["lop", "vadas"]


class TestUnusualValues:
    def test_unicode_attributes(self):
        store = SQLGraphStore()
        graph = paper_figure_graph()
        graph.set_vertex_property(1, "name", "märkö ✓")
        store.load_graph(graph)
        assert store.run("g.V.has('name', 'märkö ✓')") == [1]

    def test_quotes_in_values(self):
        store = SQLGraphStore()
        graph = paper_figure_graph()
        graph.set_vertex_property(2, "name", "o'brien")
        store.load_graph(graph)
        assert store.run("g.V.has('name', \"o'brien\")") == [2]

    def test_numeric_edge_weights_mixed_types(self):
        store = SQLGraphStore()
        graph = paper_figure_graph()
        graph.set_edge_property(7, "weight", 1)  # int among floats
        store.load_graph(graph)
        assert sorted(store.run("g.E.has('weight', T.gte, 1)")) == [7, 8]

    def test_deep_loop_unroll(self):
        store = SQLGraphStore()
        graph = paper_figure_graph()
        # build a 15-deep chain off vertex 3
        previous = 3
        for i in range(15):
            vid = 50 + i
            graph.add_vertex(vid, {"name": f"c{i}"})
            graph.add_edge(previous, vid, "next", 100 + i)
            previous = vid
        store.load_graph(graph)
        result = store.run("g.v(3).out('next').loop(1){it.loops < 15}.name")
        assert result == ["c14"]

    def test_large_in_list(self):
        store = SQLGraphStore()
        store.load_graph(paper_figure_graph())
        ids = list(range(1, 200))
        rendered = ", ".join(map(str, ids))
        assert sorted(store.run(f"g.V.retain([{rendered}])")) == [1, 2, 3, 4]


class TestConcurrentBaselineAccess:
    def test_native_readers_during_writer(self):
        from repro.baselines import NativeGraphStore

        store = NativeGraphStore()
        store.load_graph(paper_figure_graph())
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    store.run("g.V.count()")
                except Exception as exc:  # pragma: no cover
                    errors.append(exc)

        def writer():
            for i in range(50):
                store.add_vertex(1000 + i, {"name": f"w{i}"})
            stop.set()

        threads = [threading.Thread(target=reader) for __ in range(4)]
        threads.append(threading.Thread(target=writer))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
        assert not errors
        assert store.vertex_count() == 54

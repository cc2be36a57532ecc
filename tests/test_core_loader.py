"""Tests for the bulk loader and the hybrid schema layout."""

import pytest

from repro.core.loader import SQLGraphLoader
from repro.core.schema import SQLGraphSchema
from repro.datasets.random_graphs import random_property_graph
from repro.datasets.tinker import paper_figure_graph
from repro.relational import Database


def load(graph, **kwargs):
    database = Database()
    loader = SQLGraphLoader(database, **kwargs)
    loader.load(graph)
    return database, loader


class TestSchemaDdl:
    def test_tables_created(self):
        database, loader = load(paper_figure_graph())
        names = set(database.catalog.table_names())
        assert {"opa", "osa", "ipa", "isa", "va", "ea"} <= names

    def test_prefix(self):
        database = Database()
        loader = SQLGraphLoader(database, prefix="g1_")
        loader.load(paper_figure_graph())
        assert "g1_opa" in database.catalog.table_names()

    def test_triad_positions(self):
        schema = SQLGraphSchema(3, 2)
        assert schema.triad_positions(0) == (2, 3, 4)
        assert schema.triad_positions(2) == (8, 9, 10)
        assert schema.adjacency_row_width("out") == 11
        assert schema.adjacency_row_width("in") == 8

    def test_unnest_sql_enumerates_triads(self):
        schema = SQLGraphSchema(2, 1)
        sql = schema.unnest_triples_sql("p", "out")
        assert "p.eid0, p.lbl0, p.val0" in sql
        assert "p.eid1, p.lbl1, p.val1" in sql


class TestVertexLoading:
    def test_va_rows(self):
        database, __ = load(paper_figure_graph())
        result = database.execute("SELECT COUNT(*) FROM va")
        assert result.scalar() == 4
        attrs = database.execute(
            "SELECT attr FROM va WHERE vid = 1"
        ).scalar()
        assert attrs == {"name": "marko", "age": 29}

    def test_ea_rows_carry_triple(self):
        database, __ = load(paper_figure_graph())
        row = database.execute(
            "SELECT outv, inv, lbl, attr FROM ea WHERE eid = 9"
        ).rows[0]
        assert row == (1, 3, "created", {"weight": 0.4})

    def test_single_value_stored_inline(self):
        database, loader = load(paper_figure_graph())
        # vertex 4 has exactly one likes edge: stored in OPA directly
        coloring = loader.out_coloring
        column = coloring.column_for("likes")
        result = database.execute(
            f"SELECT eid{column}, lbl{column}, val{column} FROM opa "
            "WHERE vid = 4 AND lbl" + str(column) + " = 'likes'"
        )
        assert result.rows == [(10, "likes", 2)]

    def test_multi_value_goes_to_secondary(self):
        database, loader = load(paper_figure_graph())
        # vertex 1 has two knows edges -> OSA rows via a lid marker
        column = loader.out_coloring.column_for("knows")
        marker = database.execute(
            f"SELECT val{column} FROM opa WHERE vid = 1"
        ).scalar()
        assert isinstance(marker, str) and marker.startswith("lid:")
        rows = database.execute(
            "SELECT eid, val FROM osa WHERE valid = ?", [marker]
        ).rows
        assert sorted(rows) == [(7, 2), (8, 4)]

    def test_incoming_adjacency_mirrors(self):
        database, loader = load(paper_figure_graph())
        column = loader.in_coloring.column_for("created")
        marker = database.execute(
            f"SELECT val{column} FROM ipa WHERE vid = 3"
        ).scalar()
        assert isinstance(marker, str) and marker.startswith("lid:")
        rows = database.execute(
            "SELECT val FROM isa WHERE valid = ?", [marker]
        ).rows
        assert sorted(rows) == [(1,), (4,)]

    def test_vertices_without_edges_have_no_adjacency_rows(self):
        graph = paper_figure_graph()
        graph.add_vertex(99, {"name": "loner"})
        database, __ = load(graph)
        assert database.execute(
            "SELECT COUNT(*) FROM opa WHERE vid = 99"
        ).scalar() == 0
        assert database.execute(
            "SELECT COUNT(*) FROM va WHERE vid = 99"
        ).scalar() == 1


class TestSpills:
    def test_capped_columns_cause_spills(self):
        graph = random_property_graph(seed=3, n_vertices=40, n_edges=160)
        database, loader = load(graph, max_columns=1)
        report = loader.report
        # one column for five labels: vertices with several labels spill
        assert report.out.spill_rows > 0
        spill_rows = database.execute(
            "SELECT COUNT(*) FROM opa WHERE spill = 1"
        ).scalar()
        assert spill_rows > 0

    def test_spill_rows_share_vid(self):
        graph = random_property_graph(seed=3, n_vertices=40, n_edges=160)
        database, __ = load(graph, max_columns=1)
        result = database.execute(
            "WITH c AS (SELECT vid, COUNT(*) AS n FROM opa GROUP BY vid) "
            "SELECT vid FROM c WHERE n > 1"
        )
        assert len(result.rows) > 0


class TestLoadReport:
    def test_report_counts(self):
        __, loader = load(paper_figure_graph())
        report = loader.report
        assert report.vertex_count == 4
        assert report.edge_count == 5
        assert report.out.multi_value_rows == 2  # the two knows edges of 1
        assert report.incoming.multi_value_rows == 2  # the two created into 3
        assert report.out.spill_percentage == 0.0

    def test_bucket_size(self):
        __, loader = load(paper_figure_graph())
        stats = loader.report.out
        assert stats.bucket_size == pytest.approx(
            stats.hashed_labels / stats.columns
        )


class TestRoundTrip:
    def test_adjacency_reconstruction(self):
        """OPA/OSA must encode exactly the graph's out-adjacency."""
        graph = random_property_graph(seed=11, n_vertices=30, n_edges=90)
        database, loader = load(graph)
        schema = loader.schema
        reconstructed = {}
        for row in database.execute("SELECT * FROM opa").rows:
            vid = row[0]
            triads = (len(row) - 2) // 3
            for column in range(triads):
                eid_pos, lbl_pos, val_pos = schema.triad_positions(column)
                label = row[lbl_pos]
                if label is None:
                    continue
                value = row[val_pos]
                if isinstance(value, str) and value.startswith("lid:"):
                    for eid, val in database.execute(
                        "SELECT eid, val FROM osa WHERE valid = ?", [value]
                    ).rows:
                        reconstructed.setdefault(vid, set()).add((label, val, eid))
                else:
                    reconstructed.setdefault(vid, set()).add(
                        (label, value, row[eid_pos])
                    )
        expected = {}
        for edge in graph.edges():
            expected.setdefault(edge.out_vertex.id, set()).add(
                (edge.label, edge.in_vertex.id, edge.id)
            )
        assert reconstructed == expected

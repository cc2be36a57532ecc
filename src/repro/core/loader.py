"""Bulk loader: property graph → SQLGraph schema.

Fits the coloring hash functions on the (full) graph, creates the schema,
and shreds adjacency lists into OPA/IPA rows with OSA/ISA overflow for
multi-valued labels and spill rows for hash conflicts — the exact layout of
paper Figure 5.  Also collects the statistics reported in paper Table 3.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.coloring import ColoringHash, adjacency_label_sets
from repro.core.schema import SQLGraphSchema


@dataclass
class AdjacencyStats:
    """Per-direction load statistics (paper Table 3 rows)."""

    hashed_labels: int = 0
    columns: int = 0
    vertices: int = 0
    rows: int = 0
    spill_rows: int = 0
    multi_value_rows: int = 0

    @property
    def bucket_size(self):
        """Average labels hashed per column."""
        if not self.columns:
            return 0.0
        return self.hashed_labels / self.columns

    @property
    def spill_percentage(self):
        if not self.vertices:
            return 0.0
        return 100.0 * self.spill_rows / self.vertices


@dataclass
class LoadReport:
    """Everything the loader learned while shredding the graph."""

    out: AdjacencyStats = field(default_factory=AdjacencyStats)
    incoming: AdjacencyStats = field(default_factory=AdjacencyStats)
    vertex_count: int = 0
    edge_count: int = 0


class SQLGraphLoader:
    """Loads one property graph into a database using the hybrid schema."""

    def __init__(self, database, max_columns=None, sample_limit=None,
                 prefix=""):
        self.database = database
        self.max_columns = max_columns
        self.sample_limit = sample_limit
        self.prefix = prefix
        self.schema = None
        self.out_coloring = None
        self.in_coloring = None
        self.report = LoadReport()
        self._next_lid = 0

    # ------------------------------------------------------------------
    def load(self, graph):
        """Fit colorings, create tables and bulk-insert *graph*."""
        self.out_coloring = ColoringHash(self.max_columns).fit(
            adjacency_label_sets(graph, "out", self.sample_limit)
        )
        self.in_coloring = ColoringHash(self.max_columns).fit(
            adjacency_label_sets(graph, "in", self.sample_limit)
        )
        self.schema = SQLGraphSchema(
            self.out_coloring.num_columns, self.in_coloring.num_columns,
            self.prefix,
        )
        for ddl in self.schema.ddl_statements():
            self.database.execute(ddl)
        # one write scope: the whole load reaches one commit point
        with self.database.scope(writes=self.schema.table_names.values()):
            self._load_vertices(graph)
            self._load_edges(graph)
        return self.schema

    # ------------------------------------------------------------------
    def _load_vertices(self, graph):
        # rows are staged per table and appended with one insert_many
        # each: the set-at-a-time write path (docs/ARCHITECTURE.md)
        va, opa, osa, ipa, isa = [], [], [], [], []
        out_stats = self.report.out
        in_stats = self.report.incoming
        out_stats.hashed_labels = len(self.out_coloring)
        out_stats.columns = self.out_coloring.num_columns
        in_stats.hashed_labels = len(self.in_coloring)
        in_stats.columns = self.in_coloring.num_columns
        for vertex in graph.vertices():
            self.report.vertex_count += 1
            va.append((vertex.id, dict(vertex.properties)))
            self._shred_adjacency(
                vertex.id, vertex.out_edges, "out", opa, osa,
                self.out_coloring, out_stats,
            )
            self._shred_adjacency(
                vertex.id, vertex.in_edges, "in", ipa, isa,
                self.in_coloring, in_stats,
            )
        names = self.schema.table_names
        for name, rows in (("va", va), ("opa", opa), ("osa", osa),
                           ("ipa", ipa), ("isa", isa)):
            self.database.table(names[name]).insert_many(rows, coerce=False)

    def _shred_adjacency(self, vid, edges_by_label, direction, primary,
                         secondary, coloring, stats):
        if not any(edges_by_label.values()):
            return
        stats.vertices += 1
        width = self.schema.adjacency_row_width(direction)
        rows = [self._fresh_row(vid, width)]
        for label in sorted(edges_by_label):
            bucket = edges_by_label[label]
            if not bucket:
                continue
            column = coloring.column_for(label)
            eid_pos, lbl_pos, val_pos = self.schema.triad_positions(column)
            if len(bucket) == 1:
                edge = bucket[0]
                value = (
                    edge.in_vertex.id if direction == "out" else edge.out_vertex.id
                )
                row = self._row_with_free_slot(rows, lbl_pos, vid, width)
                row[eid_pos] = edge.id
                row[lbl_pos] = label
                row[val_pos] = value
            else:
                lid = self._allocate_lid()
                row = self._row_with_free_slot(rows, lbl_pos, vid, width)
                row[eid_pos] = None
                row[lbl_pos] = label
                row[val_pos] = lid
                for edge in bucket:
                    value = (
                        edge.in_vertex.id
                        if direction == "out"
                        else edge.out_vertex.id
                    )
                    secondary.append((lid, edge.id, value))
                    stats.multi_value_rows += 1
        if len(rows) > 1:
            stats.spill_rows += len(rows) - 1
            for row in rows:
                row[1] = 1
        for row in rows:
            primary.append(tuple(row))
            stats.rows += 1

    @staticmethod
    def _fresh_row(vid, width):
        row = [None] * width
        row[0] = vid
        row[1] = 0
        return row

    def _row_with_free_slot(self, rows, lbl_pos, vid, width):
        for row in rows:
            if row[lbl_pos] is None:
                return row
        row = self._fresh_row(vid, width)
        rows.append(row)
        return row

    def _allocate_lid(self):
        self._next_lid += 1
        return f"lid:{self._next_lid}"

    # ------------------------------------------------------------------
    def _load_edges(self, graph):
        rows = [
            (
                edge.id,
                edge.out_vertex.id,
                edge.in_vertex.id,
                edge.label,
                dict(edge.properties),
            )
            for edge in graph.edges()
        ]
        self.report.edge_count += len(rows)
        ea = self.database.table(self.schema.table_names["ea"])
        ea.insert_many(rows, coerce=False)

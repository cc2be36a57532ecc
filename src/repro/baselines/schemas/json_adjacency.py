"""JSON-document adjacency storage (paper Figure 2c).

Each vertex's entire adjacency list is one JSON document::

    { "knows":   [ {"eid": 7, "val": 2}, {"eid": 8, "val": 4} ],
      "created": [ {"eid": 9, "val": 3} ] }

stored as *text* in a relational table (``vid, out_edges, in_edges``) — the
document must be parsed on every access, which is precisely why the paper's
adjacency micro-benchmark (Figure 3) finds this layout slower than the
shredded hash tables: traversals pay a whole-document deserialization per
visited vertex, and multi-hop queries cannot be answered as one set-oriented
join pipeline.

Traversal here is hop-by-hop: an index join fetches the frontier's
documents, then Python extracts the neighbour ids (standing in for the
engine's JSON operators).
"""

from __future__ import annotations

import json

from repro.relational.database import Database


class JsonAdjacencyStore:
    """Adjacency-as-JSON baseline over the relational engine."""

    def __init__(self, database=None):
        self.database = database if database is not None else Database()
        self.database.execute(
            "CREATE TABLE jadj (vid INTEGER PRIMARY KEY, out_edges STRING, "
            "in_edges STRING)"
        )

    # ------------------------------------------------------------------
    def load_graph(self, graph):
        with self.database.scope(writes=("jadj",)):
            self.database.table("jadj").insert_many(
                [self._row(vertex) for vertex in graph.vertices()],
                coerce=False,
            )

    @staticmethod
    def _row(vertex):
        out_doc = {
            label: [
                {"eid": edge.id, "val": edge.in_vertex.id} for edge in bucket
            ]
            for label, bucket in vertex.out_edges.items()
            if bucket
        }
        in_doc = {
            label: [
                {"eid": edge.id, "val": edge.out_vertex.id} for edge in bucket
            ]
            for label, bucket in vertex.in_edges.items()
            if bucket
        }
        return (vertex.id, json.dumps(out_doc), json.dumps(in_doc))

    # ------------------------------------------------------------------
    def neighbors(self, vertex_ids, direction="out", labels=()):
        """One traversal hop for a frontier of vertex ids."""
        if not vertex_ids:
            return []
        rendered = ", ".join(str(int(v)) for v in sorted(set(vertex_ids)))
        column = "out_edges" if direction == "out" else "in_edges"
        result = self.database.execute(
            f"SELECT {column} FROM jadj WHERE vid IN ({rendered})"
        )
        out = []
        for (document,) in result.rows:
            parsed = json.loads(document)
            if labels:
                buckets = (parsed.get(label, ()) for label in labels)
            else:
                buckets = parsed.values()
            for bucket in buckets:
                for entry in bucket:
                    out.append(entry["val"])
        return out

    def k_hop(self, start_ids, hops, direction="out", labels=(),
              undirected=False):
        """k-hop traversal, hop-by-hop (duplicates preserved per hop set).

        With ``undirected=True`` each hop expands in both directions, the
        way the paper's ``team`` queries ignore edge direction.
        """
        frontier = list(start_ids)
        for __ in range(hops):
            if undirected:
                frontier = self.neighbors(frontier, "out", labels) + (
                    self.neighbors(frontier, "in", labels)
                )
            else:
                frontier = self.neighbors(frontier, direction, labels)
            frontier = list(dict.fromkeys(frontier))
        return frontier

    def storage_bytes(self):
        return self.database.storage_bytes()

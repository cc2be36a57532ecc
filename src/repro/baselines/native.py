"""A Neo4j-like native graph store.

Architecture being simulated:

* native in-memory adjacency structures (fast per-element navigation),
* Gremlin evaluated pipe-at-a-time through Blueprints primitives — one
  client/server round trip per primitive call,
* optional user attribute indexes for ``g.V(key, value)`` start pipes,
* a single store-wide write lock (readers proceed concurrently, writers
  serialize), a coarser concurrency model than the relational engine's
  per-table locking.
"""

from __future__ import annotations

from repro.baselines.latency import ClientServerLink
from repro.graph.blueprints import GraphInterface
from repro.graph.model import PropertyGraph
from repro.gremlin.interpreter import GremlinInterpreter
from repro.gremlin.parser import parse_gremlin
from repro.relational.locks import LockManager

#: the one name the store-wide lock is taken under
_STORE = ("store",)


class NativeGraphStore(GraphInterface):
    """In-memory adjacency store with pipe-at-a-time Gremlin execution."""

    def __init__(self, client=None):
        self.graph = PropertyGraph()
        self.client = client if client is not None else ClientServerLink()
        self._interpreter = GremlinInterpreter(self)
        self._lock = LockManager()
        self._indexes: dict[str, dict] = {}  # key -> value -> [vertex ids]

    # ------------------------------------------------------------------
    # loading / indexing
    # ------------------------------------------------------------------
    def load_graph(self, graph):
        """Adopt *graph* (shared, not copied) as the stored data."""
        self.graph = graph
        for key in self._indexes:
            self._rebuild_index(key)

    def create_attribute_index(self, key):
        self._indexes[key] = {}
        self._rebuild_index(key)

    def has_attribute_index(self, key):
        return key in self._indexes

    def _rebuild_index(self, key):
        index = self._indexes[key] = {}
        for vertex in self.graph.vertices():
            value = vertex.get_property(key)
            if value is not None:
                index.setdefault(value, []).append(vertex.id)

    # ------------------------------------------------------------------
    # Gremlin (pipe-at-a-time, chatty)
    # ------------------------------------------------------------------
    def query(self, gremlin_text):
        """Evaluate a Gremlin query; returns the list of result objects."""
        parsed = parse_gremlin(gremlin_text)
        held = self._lock.acquire(_STORE, ())
        try:
            return self._interpreter.run(parsed)
        finally:
            self._lock.release(*held)

    def run(self, gremlin_text):
        """Like query(), but maps elements to their ids (comparable to
        SQLGraphStore.run)."""
        out = []
        for value in self.query(gremlin_text):
            if hasattr(value, "id") and hasattr(value, "get_property"):
                out.append(value.id)
            elif isinstance(value, (list, tuple)):
                out.append(
                    tuple(v.id if hasattr(v, "id") else v for v in value)
                )
            else:
                out.append(value)
        return out

    # ------------------------------------------------------------------
    # interpreter data-access hooks: every call is one round trip
    # ------------------------------------------------------------------
    def adjacent_vertices(self, vertex, direction, labels):
        self.client.round_trip()
        return vertex.vertices(direction, labels)

    def incident_edges(self, vertex, direction, labels):
        self.client.round_trip()
        return vertex.edges(direction, labels)

    def edge_endpoint(self, edge, direction):
        self.client.round_trip()
        return edge.vertex(direction)

    def element_property(self, element, key):
        self.client.round_trip()
        if key == "id":
            return element.id
        if key == "label" and hasattr(element, "label"):
            return element.label
        return element.get_property(key)

    def lookup_vertices(self, key, value):
        self.client.round_trip()
        index = self._indexes.get(key)
        if index is not None:
            return [
                self.graph.get_vertex(vertex_id)
                for vertex_id in index.get(value, [])
            ]
        return [
            vertex
            for vertex in self.graph.vertices()
            if vertex.get_property(key) == value
        ]

    # ------------------------------------------------------------------
    # Blueprints CRUD (writes take the global write lock)
    # ------------------------------------------------------------------
    def get_vertex(self, vertex_id):
        self.client.round_trip()
        return self.graph.get_vertex(vertex_id)

    def get_edge(self, edge_id):
        self.client.round_trip()
        return self.graph.get_edge(edge_id)

    def vertices(self):
        self.client.round_trip()
        return self.graph.vertices()

    def edges(self):
        self.client.round_trip()
        return self.graph.edges()

    def vertex_count(self):
        return self.graph.vertex_count()

    def edge_count(self):
        return self.graph.edge_count()

    def _write(self, fn):
        self.client.round_trip()
        held = self._lock.acquire((), _STORE)
        try:
            return fn()
        finally:
            self._lock.release(*held)

    def add_vertex(self, vertex_id=None, properties=None):
        return self._write(lambda: self.graph.add_vertex(vertex_id, properties))

    def add_edge(self, out_vertex_id, in_vertex_id, label, edge_id=None,
                 properties=None):
        return self._write(
            lambda: self.graph.add_edge(
                out_vertex_id, in_vertex_id, label, edge_id, properties
            )
        )

    def remove_vertex(self, vertex_id):
        return self._write(lambda: self.graph.remove_vertex(vertex_id))

    def remove_edge(self, edge_id):
        return self._write(lambda: self.graph.remove_edge(edge_id))

    def set_vertex_property(self, vertex_id, key, value):
        def apply():
            self.graph.set_vertex_property(vertex_id, key, value)
            index = self._indexes.get(key)
            if index is not None:
                index.setdefault(value, []).append(vertex_id)

        return self._write(apply)

    def set_edge_property(self, edge_id, key, value):
        return self._write(
            lambda: self.graph.set_edge_property(edge_id, key, value)
        )

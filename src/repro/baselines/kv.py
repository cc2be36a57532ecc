"""A Titan/BerkeleyDB-like key-value backed graph store.

Architecture being simulated:

* all graph data lives in one sorted key-value map (BerkeleyDB B-tree
  style): vertex records, edge records, and adjacency entries keyed by
  ``(vid, direction, label, eid)`` so neighbourhoods are contiguous ranges;
* every value is serialized; each read pays real deserialization work
  (Titan's storage-backend serialization overhead);
* Gremlin runs pipe-at-a-time through Blueprints primitives, one
  client/server round trip per call;
* writes serialize behind a store-wide lock.
"""

from __future__ import annotations

import bisect
import pickle

from repro.baselines.latency import ClientServerLink
from repro.graph.blueprints import Direction, GraphInterface
from repro.gremlin.interpreter import GremlinInterpreter
from repro.gremlin.parser import parse_gremlin
from repro.relational.locks import LockManager

#: the one name the store-wide lock is taken under
_STORE = ("store",)


class SortedKV:
    """A sorted map of tuple keys to pickled values."""

    def __init__(self):
        self._keys = []
        self._values = {}
        self.reads = 0
        self.writes = 0

    def put(self, key, value):
        self.writes += 1
        if key not in self._values:
            bisect.insort(self._keys, key)
        self._values[key] = pickle.dumps(value, protocol=5)

    def bulk_load(self, items):
        """Load many (key, value) pairs, sorting once."""
        for key, value in items:
            self._values[key] = pickle.dumps(value, protocol=5)
            self.writes += 1
        self._keys = sorted(self._values)

    def get(self, key):
        self.reads += 1
        blob = self._values.get(key)
        return None if blob is None else pickle.loads(blob)

    def delete(self, key):
        if key in self._values:
            del self._values[key]
            position = bisect.bisect_left(self._keys, key)
            if position < len(self._keys) and self._keys[position] == key:
                del self._keys[position]
            return True
        return False

    def scan_prefix(self, prefix):
        """Yield (key, value) for keys starting with tuple *prefix*."""
        position = bisect.bisect_left(self._keys, prefix)
        n = len(prefix)
        while position < len(self._keys):
            key = self._keys[position]
            if key[:n] != prefix:
                break
            self.reads += 1
            yield key, pickle.loads(self._values[key])
            position += 1

    def __len__(self):
        return len(self._keys)

    def storage_bytes(self):
        return sum(len(blob) for blob in self._values.values())


class KVVertex:
    """Lazy vertex handle over the KV store."""

    __slots__ = ("_store", "id", "_props")

    def __init__(self, store, vertex_id, props=None):
        self._store = store
        self.id = vertex_id
        self._props = props

    @property
    def properties(self):
        if self._props is None:
            self._props = self._store._kv.get(("v", self.id)) or {}
        return self._props

    def get_property(self, key, default=None):
        return self.properties.get(key, default)

    def edges(self, direction, labels=()):
        return self._store._vertex_edges(self.id, direction, labels)

    def vertices(self, direction, labels=()):
        return self._store._vertex_neighbors(self.id, direction, labels)

    def __repr__(self):
        return f"KVVertex({self.id})"


class KVEdge:
    """Lazy edge handle over the KV store."""

    __slots__ = ("_store", "id", "outv", "inv", "label", "properties")

    def __init__(self, store, edge_id, record):
        self._store = store
        self.id = edge_id
        self.outv, self.inv, self.label, self.properties = record

    def get_property(self, key, default=None):
        return self.properties.get(key, default)

    def vertex(self, direction):
        if direction is Direction.OUT:
            return self._store._vertex_handle(self.outv)
        if direction is Direction.IN:
            return self._store._vertex_handle(self.inv)
        raise ValueError("edge endpoint requires OUT or IN")

    def __repr__(self):
        return f"KVEdge({self.id})"


class KVGraphStore(GraphInterface):
    """Graph store over :class:`SortedKV` with pipe-at-a-time Gremlin."""

    def __init__(self, client=None):
        self._kv = SortedKV()
        self.client = client if client is not None else ClientServerLink()
        self._interpreter = GremlinInterpreter(self)
        self._lock = LockManager()
        self._indexes: set[str] = set()
        self._vertex_ids = set()
        self._edge_count = 0

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_graph(self, graph):
        items = []
        for vertex in graph.vertices():
            items.append((("v", vertex.id), dict(vertex.properties)))
            self._vertex_ids.add(vertex.id)
        for edge in graph.edges():
            src, dst = edge.out_vertex.id, edge.in_vertex.id
            record = (src, dst, edge.label, dict(edge.properties))
            items.append((("e", edge.id), record))
            items.append((("adj", src, "o", edge.label, edge.id), dst))
            items.append((("adj", dst, "i", edge.label, edge.id), src))
            self._edge_count += 1
        self._kv.bulk_load(items)

    def create_attribute_index(self, key):
        self._indexes.add(key)
        items = []
        for vertex_id in self._vertex_ids:
            props = self._kv.get(("v", vertex_id)) or {}
            value = props.get(key)
            if value is not None:
                items.append((("idx", key, repr(value), vertex_id), None))
        self._kv.bulk_load(items)

    def has_attribute_index(self, key):
        return key in self._indexes

    # ------------------------------------------------------------------
    # Gremlin
    # ------------------------------------------------------------------
    def query(self, gremlin_text):
        parsed = parse_gremlin(gremlin_text)
        held = self._lock.acquire(_STORE, ())
        try:
            return self._interpreter.run(parsed)
        finally:
            self._lock.release(*held)

    def run(self, gremlin_text):
        out = []
        for value in self.query(gremlin_text):
            if hasattr(value, "id") and hasattr(value, "get_property"):
                out.append(value.id)
            elif isinstance(value, (list, tuple)):
                out.append(tuple(v.id if hasattr(v, "id") else v for v in value))
            else:
                out.append(value)
        return out

    # ------------------------------------------------------------------
    # adjacency plumbing
    # ------------------------------------------------------------------
    def _vertex_handle(self, vertex_id):
        return KVVertex(self, vertex_id)

    def _vertex_edges(self, vertex_id, direction, labels=()):
        edges = []
        directions = (
            ("o", "i") if direction is Direction.BOTH
            else ("o",) if direction is Direction.OUT else ("i",)
        )
        for tag in directions:
            if labels:
                for label in labels:
                    for key, __ in self._kv.scan_prefix(
                        ("adj", vertex_id, tag, label)
                    ):
                        edges.append(self._edge_handle(key[4]))
            else:
                for key, __ in self._kv.scan_prefix(("adj", vertex_id, tag)):
                    edges.append(self._edge_handle(key[4]))
        return edges

    def _vertex_neighbors(self, vertex_id, direction, labels=()):
        neighbors = []
        directions = (
            ("o", "i") if direction is Direction.BOTH
            else ("o",) if direction is Direction.OUT else ("i",)
        )
        for tag in directions:
            if labels:
                for label in labels:
                    for __, other in self._kv.scan_prefix(
                        ("adj", vertex_id, tag, label)
                    ):
                        neighbors.append(self._vertex_handle(other))
            else:
                for __, other in self._kv.scan_prefix(("adj", vertex_id, tag)):
                    neighbors.append(self._vertex_handle(other))
        return neighbors

    def _edge_handle(self, edge_id):
        record = self._kv.get(("e", edge_id))
        return None if record is None else KVEdge(self, edge_id, record)

    # ------------------------------------------------------------------
    # interpreter hooks (one round trip per primitive call)
    # ------------------------------------------------------------------
    def adjacent_vertices(self, vertex, direction, labels):
        self.client.round_trip()
        return self._vertex_neighbors(vertex.id, direction, labels)

    def incident_edges(self, vertex, direction, labels):
        self.client.round_trip()
        return self._vertex_edges(vertex.id, direction, labels)

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
        if key in self._indexes:
            return [
                self._vertex_handle(entry_key[3])
                for entry_key, __ in self._kv.scan_prefix(
                    ("idx", key, repr(value))
                )
            ]
        return [
            KVVertex(self, vertex_id, props)
            for vertex_id, props in (
                (vid, self._kv.get(("v", vid))) for vid in sorted(self._vertex_ids)
            )
            if props and props.get(key) == value
        ]

    # ------------------------------------------------------------------
    # Blueprints CRUD
    # ------------------------------------------------------------------
    def get_vertex(self, vertex_id):
        self.client.round_trip()
        props = self._kv.get(("v", vertex_id))
        return None if props is None else KVVertex(self, vertex_id, props)

    def get_edge(self, edge_id):
        self.client.round_trip()
        return self._edge_handle(edge_id)

    def vertices(self):
        self.client.round_trip()
        return (
            KVVertex(self, key[1], props)
            for key, props in self._kv.scan_prefix(("v",))
        )

    def edges(self):
        self.client.round_trip()
        return (
            KVEdge(self, key[1], record)
            for key, record in self._kv.scan_prefix(("e",))
        )

    def vertex_count(self):
        return len(self._vertex_ids)

    def edge_count(self):
        return self._edge_count

    def _write(self, fn):
        self.client.round_trip()
        held = self._lock.acquire((), _STORE)
        try:
            return fn()
        finally:
            self._lock.release(*held)

    def add_vertex(self, vertex_id=None, properties=None):
        def apply():
            vid = vertex_id
            if vid is None:
                vid = (max(self._vertex_ids) + 1) if self._vertex_ids else 1
            self._kv.put(("v", vid), dict(properties or {}))
            self._vertex_ids.add(vid)
            return KVVertex(self, vid, dict(properties or {}))

        return self._write(apply)

    def add_edge(self, out_vertex_id, in_vertex_id, label, edge_id=None,
                 properties=None):
        def apply():
            eid = edge_id
            if eid is None:
                eid = self._edge_count + 1_000_000_000
            record = (out_vertex_id, in_vertex_id, label, dict(properties or {}))
            self._kv.put(("e", eid), record)
            self._kv.put(("adj", out_vertex_id, "o", label, eid), in_vertex_id)
            self._kv.put(("adj", in_vertex_id, "i", label, eid), out_vertex_id)
            self._edge_count += 1
            return KVEdge(self, eid, record)

        return self._write(apply)

    def remove_edge(self, edge_id):
        def apply():
            record = self._kv.get(("e", edge_id))
            if record is None:
                return False
            src, dst, label, __ = record
            self._kv.delete(("e", edge_id))
            self._kv.delete(("adj", src, "o", label, edge_id))
            self._kv.delete(("adj", dst, "i", label, edge_id))
            self._edge_count -= 1
            return True

        return self._write(apply)

    def remove_vertex(self, vertex_id):
        def apply():
            if vertex_id not in self._vertex_ids:
                return False
            incident = [
                key[4]
                for key, __ in list(self._kv.scan_prefix(("adj", vertex_id)))
            ]
            for edge_id in incident:
                record = self._kv.get(("e", edge_id))
                if record is None:
                    continue
                src, dst, label, __props = record
                self._kv.delete(("e", edge_id))
                self._kv.delete(("adj", src, "o", label, edge_id))
                self._kv.delete(("adj", dst, "i", label, edge_id))
                self._edge_count -= 1
            self._kv.delete(("v", vertex_id))
            self._vertex_ids.discard(vertex_id)
            return True

        return self._write(apply)

    def set_vertex_property(self, vertex_id, key, value):
        def apply():
            props = self._kv.get(("v", vertex_id)) or {}
            props[key] = value
            self._kv.put(("v", vertex_id), props)
            if key in self._indexes:
                self._kv.put(("idx", key, repr(value), vertex_id), None)

        return self._write(apply)

    def set_edge_property(self, edge_id, key, value):
        def apply():
            record = self._kv.get(("e", edge_id))
            if record is None:
                return False
            src, dst, label, props = record
            props[key] = value
            self._kv.put(("e", edge_id), (src, dst, label, props))
            return True

        return self._write(apply)

    def storage_bytes(self):
        return self._kv.storage_bytes()

"""Seeded LinkBench op streams (paper Table 6 mix) with a liveness model.

The harness owns its generator so that a later edit to
``repro.datasets.linkbench.RequestGenerator`` cannot move a number, and
because that generator targets deleted elements: silent on the embedded
store, an ``INTERNAL_ERROR`` through the sharded coordinator.

Liveness rules (they hold under any interleaving of concurrent clients,
because no client ever touches what another client may delete):

* base nodes are never deleted; ``delete_node`` only targets nodes this
  client created, and cascades over the links this client hung on them;
* base links with ``eid % 4 == 0`` are *victims*, partitioned among the
  clients; a client deletes only its own victims and its own created
  links, and reads/updates only stable links, its victims and its own;
* new ids come from ranges disjoint per client and per phase;
* streams built after another stream has run on the same store take its
  deleted victims as ``retired``, so a later set of clients never
  targets what an earlier one deleted.

Node targets of reads, updates and new links are drawn with the same
``1/(rank+1)^0.6`` skew ``repro.datasets.linkbench.build_graph`` used for
the out-degrees, so hot nodes carry long link lists.

Every op carries the result the model expects.  With one client the
expectation is exact; with racing clients only :func:`shape_ok` holds
(another client may have changed a shared node's link list or payload),
except ``multiget_link``, whose targets no other client can delete.
"""

from __future__ import annotations

import random
from bisect import bisect
from itertools import accumulate

# paper Table 6, "Query Disbn" column
OPERATION_MIX = (
    ("add_node", 0.026),
    ("update_node", 0.074),
    ("delete_node", 0.010),
    ("get_node", 0.129),
    ("add_link", 0.090),
    ("delete_link", 0.030),
    ("update_link", 0.080),
    ("count_link", 0.049),
    ("multiget_link", 0.005),
    ("get_link_list", 0.507),
)
OP_NAMES = tuple(name for name, __ in OPERATION_MIX)
READ_OPS = frozenset({"get_node", "count_link", "multiget_link",
                      "get_link_list"})
GREMLIN_OPS = frozenset({"count_link", "multiget_link", "get_link_list"})

NODE_TYPES = ("user", "post", "comment", "page")
ASSOC_TYPES = ("friend", "like", "comment", "follow", "authored")

SKEW_EXPONENT = 0.6
VICTIM_MODULUS = 4
MAX_CLIENTS = 16
MAX_PHASES = 16
ID_BASE = 10_000_000
ID_RANGE = 1_000_000  # per (phase, client): nodes in the lower half


class Op:
    """One generated operation and the result the model expects."""

    __slots__ = ("name", "args", "expected")

    def __init__(self, name, args, expected=None):
        self.name = name
        self.args = args
        self.expected = expected

    @property
    def is_read(self):
        return self.name in READ_OPS

    def gremlin(self):
        """The Gremlin text of a query op (``None`` for CRUD ops)."""
        args = self.args
        if self.name == "count_link":
            return f"g.v({args['id']}).outE('{args['type']}').count()"
        if self.name == "get_link_list":
            return f"g.v({args['id']}).outE('{args['type']}')"
        if self.name == "multiget_link":
            return "g.e(" + ", ".join(str(i) for i in args["ids"]) + ")"
        return None

    def __repr__(self):
        return f"Op({self.name}, {self.args})"


class BaseGraph:
    """Read-only view of the loaded graph, shared by every client stream."""

    def __init__(self, graph):
        self.node_ids = sorted(vertex.id for vertex in graph.vertices())
        self.node_props = {
            vertex.id: dict(vertex.properties) for vertex in graph.vertices()
        }
        self.out_index = {}
        self.stable_links = []
        self.victim_links = []
        for edge in sorted(graph.edges(), key=lambda e: e.id):
            key = (edge.out_vertex.id, edge.label)
            self.out_index.setdefault(key, []).append(edge.id)
            if edge.id % VICTIM_MODULUS == 0:
                self.victim_links.append((edge.id, key))
            else:
                self.stable_links.append(edge.id)
        self.cum_weights = list(accumulate(
            1.0 / (rank + 1) ** SKEW_EXPONENT
            for rank in range(len(self.node_ids))
        ))


class ClientStream:
    """The op stream of one closed-loop client, with its liveness model."""

    def __init__(self, base, seed, client=0, clients=1, retired=()):
        """*retired*: victim links an earlier stream already deleted on
        the same store (its ``deleted_links``).  A stream built later
        must not count them as live: they leave its victims and enter
        its picture of what is deleted."""
        if not 0 <= client < clients <= MAX_CLIENTS:
            raise ValueError("client index out of range")
        self.base = base
        self.client = client
        self.exact = clients == 1
        self._rng = random.Random(seed * MAX_CLIENTS + client)
        self._weights = list(accumulate(w for __, w in OPERATION_MIX))
        # own victims: (eid, (src, type)); deleted by swap-pop
        self._victims = [
            entry for entry in base.victim_links
            if (entry[0] // VICTIM_MODULUS) % clients == client
            and entry[0] not in retired
        ]
        self._own_nodes = []       # live nodes this client created
        self._own_links = {}       # live own eid -> (src, dst, type)
        self._own_link_ids = []    # same keys, for O(1) random choice
        self._incident = {}        # own node -> own eids touching it
        self._node_props = {}      # overlay: own nodes + updated base nodes
        self._added_out = {}       # (src, type) -> own live eids
        self._deleted = set(retired)  # deleted victim eids
        self._next_node = self._next_link = None
        self.begin_phase(0)
        #: ids whose delete this client issued, for the durability check
        self.deleted_nodes = set()
        self.deleted_links = set()

    def begin_phase(self, phase):
        """Move new-id allocation to the range of (*phase*, client)."""
        if not 0 <= phase < MAX_PHASES:
            raise ValueError("phase out of range")
        start = ID_BASE + (phase * MAX_CLIENTS + self.client) * ID_RANGE
        self._next_node = start
        self._next_link = start + ID_RANGE // 2

    # ------------------------------------------------------------------
    def _payload(self, chars):
        return "%0*x" % (chars, self._rng.getrandbits(4 * chars))

    def _hot_node(self):
        base = self.base
        point = self._rng.random() * base.cum_weights[-1]
        return base.node_ids[bisect(base.cum_weights, point)]

    def _endpoint(self):
        """A live node: mostly a (skewed) base node, sometimes an own one."""
        if self._own_nodes and self._rng.random() < 0.1:
            return self._rng.choice(self._own_nodes)
        return self._hot_node()

    def _live_link(self):
        """A link no other client can delete."""
        rng = self._rng
        roll = rng.random()
        if roll < 0.2 and self._own_link_ids:
            return rng.choice(self._own_link_ids)
        if roll < 0.3 and self._victims:
            return rng.choice(self._victims)[0]
        return rng.choice(self.base.stable_links)

    def _props_of(self, node):
        props = self._node_props.get(node)
        return props if props is not None else self.base.node_props[node]

    def _links_of(self, node, link_type):
        key = (node, link_type)
        deleted = self._deleted
        live = [eid for eid in self.base.out_index.get(key, ())
                if eid not in deleted]
        live.extend(self._added_out.get(key, ()))
        return live

    def _forget_own_link(self, eid):
        src, dst, link_type = self._own_links.pop(eid)
        self._own_link_ids.remove(eid)
        self._added_out[(src, link_type)].remove(eid)
        for node in (src, dst):
            touching = self._incident.get(node)
            if touching is not None:
                touching.discard(eid)
        self.deleted_links.add(eid)

    # ------------------------------------------------------------------
    def __iter__(self):
        return self

    def __next__(self):
        rng = self._rng
        while True:
            roll = rng.random() * self._weights[-1]
            name = OP_NAMES[min(bisect(self._weights, roll),
                                len(OP_NAMES) - 1)]
            op = getattr(self, "_" + name)()
            if op is not None:
                return op
            # nothing of our own to delete yet: redraw (seed-deterministic)

    def _add_node(self):
        node = self._next_node
        self._next_node += 1
        props = {
            "type": self._rng.choice(NODE_TYPES),
            "version": 1,
            "time": 1_400_000_000,
            "data": self._payload(64),
        }
        self._own_nodes.append(node)
        self._incident[node] = set()
        self._node_props[node] = dict(props)
        return Op("add_node", {"id": node, "properties": props})

    def _update_node(self):
        node = self._endpoint()
        value = self._payload(64)
        props = dict(self._props_of(node))
        props["data"] = value
        self._node_props[node] = props
        return Op("update_node", {"id": node, "key": "data", "value": value})

    def _delete_node(self):
        if not self._own_nodes:
            return None
        index = self._rng.randrange(len(self._own_nodes))
        node = self._own_nodes[index]
        self._own_nodes[index] = self._own_nodes[-1]
        self._own_nodes.pop()
        for eid in list(self._incident.pop(node)):
            self._forget_own_link(eid)
        del self._node_props[node]
        self.deleted_nodes.add(node)
        return Op("delete_node", {"id": node})

    def _get_node(self):
        node = self._endpoint()
        return Op("get_node", {"id": node}, dict(self._props_of(node)))

    def _add_link(self):
        src = self._endpoint()
        dst = self._endpoint()
        while dst == src:
            dst = self._hot_node()
        eid = self._next_link
        self._next_link += 1
        link_type = self._rng.choice(ASSOC_TYPES)
        self._own_links[eid] = (src, dst, link_type)
        self._own_link_ids.append(eid)
        self._added_out.setdefault((src, link_type), []).append(eid)
        for node in (src, dst):
            if node in self._incident:
                self._incident[node].add(eid)
        return Op("add_link", {
            "id": eid, "src": src, "dst": dst, "type": link_type,
            "properties": {
                "visibility": 1,
                "timestamp": 1_400_000_000,
                "data": self._payload(32),
            },
        })

    def _delete_link(self):
        rng = self._rng
        if self._own_link_ids and (not self._victims or rng.random() < 0.5):
            eid = rng.choice(self._own_link_ids)
            self._forget_own_link(eid)
        elif self._victims:
            index = rng.randrange(len(self._victims))
            eid, __ = self._victims[index]
            self._victims[index] = self._victims[-1]
            self._victims.pop()
            self._deleted.add(eid)
            self.deleted_links.add(eid)
        else:
            return None
        return Op("delete_link", {"id": eid})

    def _update_link(self):
        return Op("update_link", {
            "id": self._live_link(), "key": "data",
            "value": self._payload(32),
        })

    def _count_link(self):
        node = self._endpoint()
        link_type = self._rng.choice(ASSOC_TYPES)
        return Op("count_link", {"id": node, "type": link_type},
                  len(self._links_of(node, link_type)))

    def _multiget_link(self):
        ids = set()
        while len(ids) < 3:
            ids.add(self._live_link())
        ids = sorted(ids)
        return Op("multiget_link", {"ids": ids}, ids)

    def _get_link_list(self):
        node = self._endpoint()
        link_type = self._rng.choice(ASSOC_TYPES)
        return Op("get_link_list", {"id": node, "type": link_type},
                  sorted(self._links_of(node, link_type)))

    # ------------------------------------------------------------------
    def live_created(self):
        """``(node ids, link ids)`` this client created and did not delete."""
        return list(self._own_nodes), list(self._own_link_ids)

    def node_props(self, node):
        """Modelled properties of *node*.  Exact for own nodes even when
        clients race: no other client ever targets them."""
        return dict(self._props_of(node))


def result_ok(op, result, exact):
    """Is *result* what the model expects of read *op*?

    *result* is the adapter-normalised value: a properties dict (or
    ``None``) for ``get_node``, an int for ``count_link``, a list of edge
    ids for the two list reads.  Writes have nothing to check beyond
    "no error".
    """
    name = op.name
    if name == "get_node":
        if not isinstance(result, dict):
            return False
        return result == op.expected if exact else "data" in result
    if name == "count_link":
        if not isinstance(result, int) or isinstance(result, bool):
            return False
        return result == op.expected if exact else result >= 0
    if name == "multiget_link":
        # targets are undeletable by other clients: exact even when racing
        return isinstance(result, list) and sorted(result) == op.expected
    if name == "get_link_list":
        if not isinstance(result, list):
            return False
        if exact:
            return sorted(result) == op.expected
        return all(isinstance(eid, int) for eid in result)
    return True

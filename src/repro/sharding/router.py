"""The scatter-gather query router over a cluster of shard servers.

Three layers, bottom to top:

* :class:`ShardRouter` — owns one :class:`~repro.sharding.pool.
  ShardClientPool` per shard plus a thread pool, and exposes the batched
  cluster primitives: ``hop`` (frontier adjacency), ``fetch`` (element
  materialization), ``crud`` (routed mutations) and ``scatter`` (the
  generic parallel fan-out).  Out-hops go only to the shards owning the
  frontier (edges live with their source vertex); in-hops broadcast.

* :class:`ShardedGraph` — a per-query Blueprints view implementing the
  :class:`~repro.gremlin.interpreter.GremlinInterpreter` graph hooks
  (``adjacent_vertices``/``incident_edges``/``edge_endpoint``/
  ``lookup_vertices``) against prefetch caches, so the per-element
  interpreter semantics stay byte-for-byte identical to the single-store
  oracle while the actual I/O happens in shard-batched round trips.

* :class:`ShardedStore` — the store facade the coordinator serves:
  ``run``/``query`` route whole pipelines to a single shard when every
  step is provably shard-local (``Pipe.shard_local`` metadata), and
  otherwise evaluate through :class:`ShardedInterpreter`, which resolves
  each frontier per shard, fans the hop out in parallel threads, and
  merges + re-partitions the result frontier for the next step.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

from repro.client import CRUD_READ_ACTIONS, ClientError
from repro.graph.blueprints import Direction
from repro.gremlin import GremlinInterpreter, parse_gremlin
from repro.gremlin import pipes as p
from repro.obs import context as obs_context
from repro.obs.stats import QueryStats
from repro.server.protocol import SHARD_UNAVAILABLE, WireError
from repro.sharding.partition import owner_groups, shard_of
from repro.sharding.pool import ShardClientPool


class ShardUnavailableError(WireError):
    """A worker shard could not be reached (down or mid-restart).

    ``retryable`` is per-request, not per-code: a lost shard during an
    idempotent read fan-out left the cluster unchanged (safe to re-send
    once the shard restarts), while the same loss mid-mutation may have
    landed the write before the ack — the static classification of
    ``SHARD_UNAVAILABLE`` stays non-retryable and reads opt in.
    """

    def __init__(self, shard_index, address, cause, retryable=False):
        super().__init__(
            SHARD_UNAVAILABLE,
            f"shard {shard_index} at {address[0]}:{address[1]} "
            f"unavailable: {cause}",
            retryable=retryable,
        )
        self.shard_index = shard_index


_DIRECTION_TOKENS = {Direction.OUT: "out", Direction.IN: "in"}


class ShardRouter:
    """Connection fan-out and frontier partitioning over N shards."""

    def __init__(self, addresses, max_idle=4, connect_timeout_s=5.0,
                 request_timeout_s=30.0):
        if not addresses:
            raise ValueError("a cluster needs at least one shard")
        self.pools = [
            ShardClientPool(
                index, host, port, max_idle=max_idle,
                connect_timeout_s=connect_timeout_s,
                request_timeout_s=request_timeout_s,
            )
            for index, (host, port) in enumerate(addresses)
        ]
        self._executor = ThreadPoolExecutor(
            max_workers=max(4, 2 * len(self.pools)),
            thread_name_prefix="shard-router",
        )
        self._closed = False

    # ------------------------------------------------------------------
    @property
    def num_shards(self):
        return len(self.pools)

    def owner(self, vid):
        return shard_of(vid, self.num_shards)

    def close(self):
        if self._closed:
            return
        self._closed = True
        self._executor.shutdown(wait=False)
        for pool in self.pools:
            pool.close()

    # ------------------------------------------------------------------
    # fan-out primitives
    # ------------------------------------------------------------------
    def call(self, index, fn, retryable=False):
        """Run *fn(client)* against one shard, translating transport
        failures into :class:`ShardUnavailableError`.

        ``retryable`` declares whether *this request* is idempotent, so
        a shard loss surfaces with the right client-retry verdict."""
        pool = self.pools[index]
        try:
            with pool.client() as client:
                return fn(client)
        except (ClientError, OSError) as exc:
            raise ShardUnavailableError(
                index, (pool.host, pool.port), exc, retryable=retryable
            ) from None

    def scatter(self, work, retryable=False):
        """Run ``{shard_index: fn(client)}`` in parallel threads.

        Returns ``{shard_index: result}``.  The first failure is
        re-raised after every branch has finished (no half-running
        leftovers touching the pools).
        """
        if not work:
            return {}
        if len(work) == 1:
            ((index, fn),) = work.items()
            return {index: self.call(index, fn, retryable=retryable)}
        futures = {
            index: self._executor.submit(
                self.call, index, fn, retryable=retryable
            )
            for index, fn in work.items()
        }
        results, first_error = {}, None
        for index, future in futures.items():
            try:
                results[index] = future.result()
            except Exception as exc:  # every branch must finish before the first failure re-raises (no half-running leftovers touching the pools)
                if first_error is None:
                    first_error = exc
        if first_error is not None:
            raise first_error
        return results

    def broadcast(self, fn, retryable=False):
        return self.scatter(
            {i: fn for i in range(self.num_shards)}, retryable=retryable
        )

    # ------------------------------------------------------------------
    # batched graph primitives
    # ------------------------------------------------------------------
    def hop(self, token, vids, labels=()):
        """One adjacency hop for a frontier of vids.

        ``token`` is ``'out'`` or ``'in'``.  Out-edges live with their
        source vertex, so an out-hop is scattered only to the owning
        shards; in-edges can have been stored anywhere, so an in-hop is
        broadcast.  Returns ``{source_vid: [ea_row, ...]}`` with each
        row list sorted by eid (deterministic merge order).
        """
        vids = list(vids)
        if not vids:
            return {}
        labels = list(labels)
        if token == "out":
            groups = owner_groups(vids, self.num_shards)
            results = self.scatter({
                index: (lambda c, batch=batch:
                        c.hop("out", batch, labels))
                for index, batch in groups.items()
            }, retryable=True)
            key = 1  # outv
        elif token == "in":
            results = self.broadcast(
                lambda c: c.hop("in", vids, labels), retryable=True
            )
            key = 2  # inv
        else:
            raise ValueError(f"unknown hop direction {token!r}")
        merged = {}
        for rows in results.values():
            for row in rows:
                merged.setdefault(row[key], []).append(tuple(row))
        for bucket in merged.values():
            bucket.sort(key=lambda row: row[0])
        return merged

    def fetch_vertices(self, vids):
        """Live ``{vid: attr_dict}`` for the given ids, owner-routed."""
        groups = owner_groups(
            (v for v in vids if isinstance(v, int)), self.num_shards
        )
        results = self.scatter({
            index: (lambda c, batch=batch: c.fetch(vids=batch))
            for index, batch in groups.items()
        }, retryable=True)
        found = {}
        for payload in results.values():
            for vid, attr in payload.get("vertices", ()):
                found[vid] = attr
        return found

    def fetch_edges(self, eids):
        """Live ``{eid: (eid, outv, inv, lbl, attr)}``, broadcast: an
        edge lives on the shard owning its source, which the caller
        generally cannot know from the eid alone."""
        eids = [e for e in set(eids) if isinstance(e, int)]
        if not eids:
            return {}
        results = self.broadcast(lambda c: c.fetch(eids=eids),
                                 retryable=True)
        found = {}
        for payload in results.values():
            for row in payload.get("edges", ()):
                found[row[0]] = tuple(row)
        return found

    def all_vertices(self):
        """Every live VA row, concatenated in shard order."""
        results = self.broadcast(lambda c: c.fetch(all="vertices"),
                                 retryable=True)
        rows = []
        for index in sorted(results):
            rows.extend(tuple(row) for row in results[index]["vertices"])
        return rows

    def all_edges(self):
        results = self.broadcast(lambda c: c.fetch(all="edges"),
                                 retryable=True)
        rows = []
        for index in sorted(results):
            rows.extend(tuple(row) for row in results[index]["edges"])
        return rows

    def counts(self):
        results = self.broadcast(lambda c: c.fetch(all="counts"),
                                 retryable=True)
        vertices = sum(r["counts"]["vertices"] for r in results.values())
        edges = sum(r["counts"]["edges"] for r in results.values())
        return vertices, edges

    def max_ids(self):
        results = self.broadcast(lambda c: c.fetch(all="max_ids"),
                                 retryable=True)
        max_vid = max(r["max_ids"]["vid"] for r in results.values())
        max_eid = max(r["max_ids"]["eid"] for r in results.values())
        return max_vid, max_eid

    def crud(self, index, action, **args):
        return self.call(
            index, lambda c: c.crud(action, **args),
            retryable=action in CRUD_READ_ACTIONS,
        )

    def run_on(self, index, gremlin_text):
        """Forward a whole single-shard pipeline (a read)."""
        return self.call(index, lambda c: c.run(gremlin_text),
                         retryable=True)

    def health(self):
        """Per-shard liveness + serving stats (the ``:shards`` report)."""
        report = []
        for index, pool in enumerate(self.pools):
            entry = {
                "shard": index,
                "address": f"{pool.host}:{pool.port}",
                "ok": False,
            }
            try:
                stats = self.call(index, lambda c: c.stats(),
                                  retryable=True)
                server = stats.get("server", {})
                entry.update(
                    ok=True,
                    requests=server.get("requests"),
                    errors=server.get("errors"),
                    active_sessions=server.get("active_sessions"),
                )
            except WireError as exc:
                entry["error"] = str(exc)
            report.append(entry)
        return report


# ----------------------------------------------------------------------
# remote element handles (mirror SQLVertex / SQLEdge shapes)
# ----------------------------------------------------------------------
class RemoteVertex:
    """A vertex materialized on the coordinator.

    Carries its full attribute dict, so property filters and closures
    evaluate locally — only adjacency leaves the process.  Deliberately
    has no ``label`` attribute: the interpreter distinguishes edges from
    vertices by its presence.
    """

    __slots__ = ("id", "properties")

    def __init__(self, vid, properties):
        self.id = vid
        self.properties = dict(properties or {})

    def get_property(self, key, default=None):
        return self.properties.get(key, default)

    def property_keys(self):
        return list(self.properties)

    def __repr__(self):
        return f"RemoteVertex({self.id})"


class RemoteEdge:
    """An edge materialized on the coordinator (one EA row)."""

    __slots__ = ("id", "outv", "inv", "label", "properties")

    def __init__(self, eid, outv, inv, label, properties):
        self.id = eid
        self.outv = outv
        self.inv = inv
        self.label = label
        self.properties = dict(properties or {})

    def get_property(self, key, default=None):
        return self.properties.get(key, default)

    def property_keys(self):
        return list(self.properties)

    def __repr__(self):
        return f"RemoteEdge({self.id}, {self.outv}-[{self.label}]->{self.inv})"


class ShardedGraph:
    """Per-query Blueprints view over the cluster, with prefetch caches.

    The interpreter's per-element hooks resolve against the caches the
    batched prefetch calls populate, so evaluation order and semantics
    match the in-memory :class:`~repro.graph.model.PropertyGraph`
    exactly while I/O stays frontier-batched.  Views are cheap; create
    one per query so mutations between queries are always visible.
    """

    def __init__(self, router):
        self.router = router
        self._vertex_cache = {}  # vid -> RemoteVertex | None
        self._edge_cache = {}  # eid -> RemoteEdge | None
        self._hop_cache = {}  # (token, labels) -> {vid: [ea_row, ...]}
        #: scatter-gather accounting for QueryStats.sharding
        self.hops = 0
        self.requests = 0

    # ------------------------------------------------------------------
    # prefetch (called by ShardedInterpreter with whole frontiers)
    # ------------------------------------------------------------------
    def prefetch_vertices(self, vids):
        missing = [v for v in set(vids)
                   if isinstance(v, int) and v not in self._vertex_cache]
        if not missing:
            return
        found = self.router.fetch_vertices(missing)
        self.requests += 1
        for vid in missing:
            attr = found.get(vid)
            self._vertex_cache[vid] = (
                RemoteVertex(vid, attr) if attr is not None else None
            )

    def prefetch_edges(self, eids):
        """Resolve every eid not yet cached in one broadcast."""
        missing = [e for e in set(eids)
                   if isinstance(e, int) and e not in self._edge_cache]
        if not missing:
            return
        found = self.router.fetch_edges(missing)
        self.requests += 1
        for eid in missing:
            row = found.get(eid)
            self._edge_cache[eid] = RemoteEdge(*row) if row else None

    def _hop_bucket(self, token, labels):
        return self._hop_cache.setdefault((token, tuple(labels)), {})

    def prefetch_hops(self, vids, direction, labels):
        """Resolve the ``direction`` hop for every vid not yet cached."""
        tokens = (
            ("out", "in") if direction == "both" else (direction,)
        )
        for token in tokens:
            bucket = self._hop_bucket(token, labels)
            missing = [v for v in set(vids)
                       if isinstance(v, int) and v not in bucket]
            if not missing:
                continue
            merged = self.router.hop(token, missing, labels)
            self.hops += 1
            self.requests += 1
            for vid in missing:
                bucket[vid] = merged.get(vid, [])

    def prefetch_adjacent(self, vids, direction, labels):
        """Hop + materialize the neighbor frontier in one batch each."""
        self.prefetch_hops(vids, direction, labels)
        neighbors = []
        tokens = (
            ("out", "in") if direction == "both" else (direction,)
        )
        for token in tokens:
            bucket = self._hop_bucket(token, labels)
            position = 2 if token == "out" else 1  # inv / outv
            for vid in vids:
                for row in bucket.get(vid, ()):
                    neighbors.append(row[position])
        self.prefetch_vertices(neighbors)

    # ------------------------------------------------------------------
    # GraphInterface surface + interpreter hooks
    # ------------------------------------------------------------------
    def get_vertex(self, vertex_id):
        if vertex_id not in self._vertex_cache:
            self.prefetch_vertices([vertex_id])
        return self._vertex_cache.get(vertex_id)

    def get_edge(self, edge_id):
        if edge_id not in self._edge_cache:
            self.prefetch_edges([edge_id])
        return self._edge_cache.get(edge_id)

    def vertices(self):
        rows = self.router.all_vertices()
        self.requests += 1
        out = []
        for vid, attr in rows:
            vertex = self._vertex_cache.get(vid)
            if vertex is None:
                vertex = RemoteVertex(vid, attr)
                self._vertex_cache[vid] = vertex
            out.append(vertex)
        return out

    def edges(self):
        rows = self.router.all_edges()
        self.requests += 1
        return [RemoteEdge(*row) for row in rows]

    def vertex_count(self):
        return self.router.counts()[0]

    def edge_count(self):
        return self.router.counts()[1]

    # -- interpreter data-access hooks ---------------------------------
    def _rows_for(self, vid, token, labels):
        bucket = self._hop_bucket(token, labels)
        if vid not in bucket:
            self.prefetch_hops([vid], token, labels)
        return bucket.get(vid, [])

    def adjacent_vertices(self, vertex, direction, labels):
        if direction is Direction.BOTH:
            yield from self.adjacent_vertices(vertex, Direction.OUT, labels)
            yield from self.adjacent_vertices(vertex, Direction.IN, labels)
            return
        token = _DIRECTION_TOKENS[direction]
        position = 2 if token == "out" else 1
        rows = self._rows_for(vertex.id, token, labels)
        self.prefetch_vertices([row[position] for row in rows])
        for row in rows:
            neighbor = self._vertex_cache.get(row[position])
            if neighbor is not None:
                yield neighbor

    def incident_edges(self, vertex, direction, labels):
        if direction is Direction.BOTH:
            yield from self.incident_edges(vertex, Direction.OUT, labels)
            yield from self.incident_edges(vertex, Direction.IN, labels)
            return
        token = _DIRECTION_TOKENS[direction]
        for row in self._rows_for(vertex.id, token, labels):
            yield RemoteEdge(*row)

    def edge_endpoint(self, edge, direction):
        if direction is Direction.OUT:
            return self.get_vertex(edge.outv)
        if direction is Direction.IN:
            return self.get_vertex(edge.inv)
        raise ValueError("edge endpoint requires OUT or IN")

    def lookup_vertices(self, key, value):
        return (
            vertex
            for vertex in self.vertices()
            if vertex.get_property(key) == value
        )


class ShardedInterpreter(GremlinInterpreter):
    """GremlinInterpreter with frontier-batched scatter-gather hops.

    Before delegating each pipe to the base per-element evaluation, the
    whole frontier's data is prefetched in one parallel fan-out per
    shard — so semantics are inherited, not re-implemented, and the
    round-trip count scales with pipeline depth instead of result size.
    """

    def _eval_pipe(self, pipe, traversers, env):
        # a start pipe runs on the one empty root traverser
        if isinstance(pipe, p.StartVertices) and pipe.ids:
            self.graph.prefetch_vertices(pipe.ids)
        elif isinstance(pipe, p.StartEdges) and pipe.ids:
            self.graph.prefetch_edges(pipe.ids)
        elif traversers:
            if isinstance(pipe, (p.Adjacent, p.IncidentEdges)):
                frontier = [
                    t.obj.id for t in traversers
                    if isinstance(t.obj, RemoteVertex)
                ]
                if isinstance(pipe, p.Adjacent):
                    self.graph.prefetch_adjacent(
                        frontier, pipe.direction, pipe.labels
                    )
                else:
                    self.graph.prefetch_hops(
                        frontier, pipe.direction, pipe.labels
                    )
            elif isinstance(pipe, p.EdgeVertex):
                endpoints = []
                for traverser in traversers:
                    if isinstance(traverser.obj, RemoteEdge):
                        if pipe.direction in ("out", "both"):
                            endpoints.append(traverser.obj.outv)
                        if pipe.direction in ("in", "both"):
                            endpoints.append(traverser.obj.inv)
                self.graph.prefetch_vertices(endpoints)
        return super()._eval_pipe(pipe, traversers, env)


# ----------------------------------------------------------------------
# the store facade
# ----------------------------------------------------------------------
def single_shard_index(query, num_shards):
    """The one shard a pipeline can run on whole, or ``None``.

    Forwardable means: rooted at ``g.v(ids)`` with every seed owned by
    the same shard, and every subsequent pipe marked ``shard_local``
    (see :mod:`repro.gremlin.pipes`).
    """
    pipes = list(query.pipes)
    if not pipes:
        return None
    start = pipes[0]
    if not isinstance(start, p.StartVertices) or not start.ids:
        return None
    owners = {shard_of(vid, num_shards) for vid in start.ids}
    if len(owners) != 1:
        return None
    if not all(pipe.shard_local for pipe in pipes[1:]):
        return None
    return owners.pop()


class ShardedStore:
    """The coordinator's store: one logical graph over N shard servers.

    Implements the slice of the :class:`~repro.core.store.SQLGraphStore`
    surface a serving coordinator needs — Gremlin reads (``run`` /
    ``query``) and Blueprints CRUD — with identical result semantics.
    Raw SQL and bulk analytics stay shard-local by design: connect to an
    individual worker for those.
    """

    #: lets the CLI and server tell a cluster facade from an embedded store
    is_sharded = True

    def __init__(self, router, manager=None):
        self.router = router
        self.manager = manager  # optional ShardManager for supervision info
        self._id_guard = threading.Lock()
        self._next_vid = None  # lazily seeded from the cluster maxima
        self._next_eid = None

    @classmethod
    def connect(cls, addresses, manager=None, **router_options):
        return cls(ShardRouter(addresses, **router_options), manager=manager)

    # ------------------------------------------------------------------
    @property
    def num_shards(self):
        return self.router.num_shards

    @property
    def last_query_stats(self):
        """:class:`~repro.obs.stats.QueryStats` of the calling thread's
        last query (a view over its request record)."""
        return obs_context.current().query

    def close(self):
        self.router.close()

    def shard_health(self):
        report = self.router.health()
        if self.manager is not None:
            for entry, shard in zip(report, self.manager.describe()):
                entry["pid"] = shard["pid"]
                entry["restarts"] = shard["restarts"]
        return report

    # ------------------------------------------------------------------
    # Gremlin reads
    # ------------------------------------------------------------------
    def run(self, gremlin_text):
        """Run a Gremlin query; returns the list of result values.

        Elements come back as bare ids — the same convention as the
        SQL-translated ``SQLGraphStore.run`` — so sharded and embedded
        results are directly comparable.
        """
        started = perf_counter()
        stats = QueryStats(gremlin=gremlin_text)
        query = parse_gremlin(gremlin_text)
        index = single_shard_index(query, self.num_shards)
        if index is not None:
            values = self.router.run_on(index, gremlin_text)
            stats.sharding = {
                "mode": "forward",
                "shards": self.num_shards,
                "target_shard": index,
                "hops": 0,
                "requests": 1,
            }
        else:
            graph = ShardedGraph(self.router)
            values = [
                _plain(value)
                for value in ShardedInterpreter(graph).run(query)
            ]
            stats.sharding = {
                "mode": "scatter",
                "shards": self.num_shards,
                "target_shard": None,
                "hops": graph.hops,
                "requests": graph.requests,
            }
        stats.rows_returned = len(values)
        stats.elapsed_s = perf_counter() - started
        obs_context.current().query = stats
        return values

    def query(self, gremlin_text):
        """Run a Gremlin query; returns a one-column result set."""
        values = self.run(gremlin_text)
        return _ShardedResultSet(values)

    # ------------------------------------------------------------------
    # Blueprints CRUD (routed to the owning shard)
    # ------------------------------------------------------------------
    def _seed_ids(self):
        if self._next_vid is None:
            max_vid, max_eid = self.router.max_ids()
            self._next_vid = max_vid + 1
            self._next_eid = max_eid + 1

    def _allocate(self, attr, explicit):
        with self._id_guard:
            self._seed_ids()
            if explicit is None:
                explicit = getattr(self, attr)
            setattr(self, attr, max(getattr(self, attr), explicit + 1))
        return explicit

    def add_vertex(self, vertex_id=None, properties=None):
        vid = self._allocate("_next_vid", vertex_id)
        return self.router.crud(
            self.router.owner(vid), "add_vertex",
            vertex_id=vid, properties=properties,
        )

    def add_edge(self, out_vertex_id, in_vertex_id, label, edge_id=None,
                 properties=None):
        eid = self._allocate("_next_eid", edge_id)
        return self.router.crud(
            self.router.owner(out_vertex_id), "add_edge",
            out_vertex_id=out_vertex_id, in_vertex_id=in_vertex_id,
            label=label, edge_id=eid, properties=properties,
        )

    def get_vertex(self, vertex_id):
        found = self.router.fetch_vertices([vertex_id])
        if vertex_id not in found:
            return None
        return RemoteVertex(vertex_id, found[vertex_id])

    def get_edge(self, edge_id):
        row = self.router.fetch_edges([edge_id]).get(edge_id)
        return RemoteEdge(*row) if row else None

    def remove_vertex(self, vertex_id):
        """Delete a vertex and every incident edge, cluster-wide.

        The owner shard's delete covers the vertex row plus all locally
        stored edges (every out-edge, and in-edges from same-shard
        sources).  In-edges from *other* shards live with their sources,
        so they are found by a broadcast in-hop and deleted on their
        owning shards first.
        """
        owner = self.router.owner(vertex_id)
        incoming = self.router.hop("in", [vertex_id]).get(vertex_id, [])
        removed_any = False
        for eid, outv, _inv, _lbl, _attr in incoming:
            source_owner = self.router.owner(outv)
            if source_owner != owner:
                removed_any |= bool(self.router.crud(
                    source_owner, "remove_edge", edge_id=eid
                ))
        removed = self.router.crud(owner, "remove_vertex",
                                   vertex_id=vertex_id)
        return bool(removed) or removed_any

    def remove_edge(self, edge_id):
        row = self.router.fetch_edges([edge_id]).get(edge_id)
        if row is None:
            return False
        return bool(self.router.crud(
            self.router.owner(row[1]), "remove_edge", edge_id=edge_id
        ))

    def set_vertex_property(self, vertex_id, key, value):
        return self.router.crud(
            self.router.owner(vertex_id), "set_vertex_property",
            vertex_id=vertex_id, key=key, value=value,
        )

    def set_edge_property(self, edge_id, key, value):
        row = self.router.fetch_edges([edge_id]).get(edge_id)
        if row is None:
            raise KeyError(f"edge {edge_id} does not exist")
        return self.router.crud(
            self.router.owner(row[1]), "set_edge_property",
            edge_id=edge_id, key=key, value=value,
        )

    def vertices(self):
        return iter(ShardedGraph(self.router).vertices())

    def edges(self):
        return iter(ShardedGraph(self.router).edges())

    def vertex_count(self):
        return self.router.counts()[0]

    def edge_count(self):
        return self.router.counts()[1]


class _ShardedResultSet:
    """Engine-ResultSet shape for sharded Gremlin results."""

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(self, values):
        self.columns = ["val"]
        self.rows = [(value,) for value in values]
        self.rowcount = len(values)

    def scalar(self):
        return self.rows[0][0] if self.rows else None

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


def _plain(value):
    """Map interpreter objects to wire-able values (elements -> ids)."""
    if isinstance(value, (RemoteVertex, RemoteEdge)):
        return value.id
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    if isinstance(value, dict):
        # groupCount/table buckets can be keyed by elements
        return {_plain(key): _plain(item) for key, item in value.items()}
    return value

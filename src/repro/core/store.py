"""The SQLGraph store facade.

:class:`SQLGraphStore` glues the pieces together:

* load a property graph with :class:`~repro.core.loader.SQLGraphLoader`;
* answer whole Gremlin queries by translating them to one SQL statement
  (``query`` / ``run`` / ``translate``);
* expose Blueprints-style CRUD through the update stored procedures;
* optionally charge a simulated client/server round trip per *request*
  (one per query / CRUD call — the architectural contrast with the
  pipe-at-a-time baselines, which pay one round trip per traversal step
  per element).
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.core.loader import SQLGraphLoader
from repro.core.procedures import GraphProcedures
from repro.core.schema import SQLGraphSchema, attribute_index_ddl
from repro.core.translator import (
    GremlinTranslator,
    bind_parameters,
    parameterize_query,
    strip_parameter_markers,
)
from repro.graph.analytics import GraphAnalytics
from repro.graph.blueprints import Direction, GraphInterface
from repro.gremlin.errors import GremlinError
from repro.gremlin.lexer import fill_slots, slot_literals
from repro.gremlin.parser import parse_gremlin
from repro.obs import context as obs_context
from repro.obs.stats import ExecutionStats, QueryStats
from repro.relational.cache import LRUCache
from repro.relational.database import Database


#: statements one shape keeps, one per tuple of kept literals; a full
#: shape starts over
_STATEMENTS_PER_SHAPE = 16
#: probe sentinels are numbers (or ``#<number>#`` strings) near this one
_SENTINEL = 7_919_000_000


class _Shape:
    """Translation-cache entry: one query shape's slot map, learned once,
    and the statements translated for it.

    ``feeds[j]`` is the literal that parameter *j* of
    :func:`~repro.core.translator.parameterize_query` takes: slot ``i``,
    or ``~i`` for ``-literal`` (a unary minus).  Every other literal is
    *kept*: it shapes the SQL (a label, a ``range`` position, a ``loop``
    bound, a string-method argument ...), so ``statements`` is keyed by
    the kept literals' values.  A statement's recipe lists the literal
    bound to each ``?`` in the same encoding.
    """

    __slots__ = ("feeds", "kept", "statements")

    def __init__(self, feeds, slots):
        self.feeds = feeds
        fed = {slot if slot >= 0 else ~slot for slot in feeds}
        self.kept = tuple(slot for slot in range(slots) if slot not in fed)
        self.statements = {}

    def add(self, literals, sql, recipe, trace):
        statements = self.statements
        if len(statements) >= _STATEMENTS_PER_SHAPE:
            self.statements = statements = {}
        statements[tuple([literals[slot] for slot in self.kept])] = (
            sql, [self.feeds[position] for position in recipe], trace)


def _bind(recipe, literals):
    return [literals[slot] if slot >= 0 else -literals[~slot]
            for slot in recipe]


def _same_values(left, right):
    """Equal in order, value and type (``1`` is not ``1.0``)."""
    return len(left) == len(right) and all(
        type(a) is type(b) and a == b for a, b in zip(left, right))


def _learn_feeds(shape, literals):
    """The literal feeding each parameter of *shape*, or ``None`` when
    that cannot be told unambiguously.

    Parameterizes a probe copy of the text in which every literal is a
    distinct sentinel of its kind, and reads off where each sentinel
    lands.  A parameter no sentinel explains (a constant the parser made
    up), or a fed literal whose sentinel also lands in the template,
    makes the shape unlearnable.
    """
    sentinels = []
    slot_of = {}
    for slot, value in enumerate(literals):
        number = _SENTINEL + slot
        if isinstance(value, str):
            sentinel = f"#{number}#"
        else:
            sentinel = number + 0.5 if isinstance(value, float) else number
            slot_of[-sentinel] = ~slot
        slot_of[sentinel] = slot
        sentinels.append(sentinel)
    try:
        __, probed, template_key = parameterize_query(
            parse_gremlin(fill_slots(shape, sentinels)))
    except GremlinError:
        return None
    feeds = [slot_of.get(value) for value in probed]
    if None in feeds or not _same_values(_bind(feeds, sentinels), probed):
        return None
    if any(str(_SENTINEL + (slot if slot >= 0 else ~slot)) in template_key
           for slot in feeds):
        return None
    return feeds


class SQLGraphStore(GraphInterface):
    """A property-graph store over the relational engine.

    :param buffer_pool_pages: buffer pool size (``None`` = unbounded).
    :param max_columns: cap on adjacency column triads.
    :param client: optional latency model charged once per request
        (:class:`repro.baselines.latency.ClientServerLink`).
    :param path: directory for durable storage (``None`` = in-memory).
        Reopening a path restores the loaded graph, colorings, attribute
        indexes and id counters from the recovered database.
    :param wal_fsync / wal_group_window_ms / wal_checkpoint_every:
        durability knobs forwarded to :class:`~repro.relational.database.
        Database` (see its docstring and ``REPRO_WAL_*`` env variables).
    """

    #: meta key the store's persistent state lives under in Database.meta
    META_KEY = "sqlgraph"

    def __init__(self, buffer_pool_pages=None, max_columns=None, client=None,
                 planner_options=None, path=None, wal_fsync=None,
                 wal_group_window_ms=None, wal_checkpoint_every=None):
        self.database = Database(
            buffer_pool_pages, planner_options=planner_options, path=path,
            wal_fsync=wal_fsync, wal_group_window_ms=wal_group_window_ms,
            wal_checkpoint_every=wal_checkpoint_every,
        )
        #: query shape (Gremlin text, literals slotted) -> :class:`_Shape`
        self.translation_cache = LRUCache()
        self.max_columns = max_columns
        self.client = client
        self.schema = None
        self.loader = None
        self.translator = None
        self.procedures = None
        self.out_coloring = None
        self.in_coloring = None
        #: :class:`~repro.core.loader.LoadReport` of the last load — kept
        #: on the store (and persisted) because a reopened store has no
        #: loader instance
        self.load_report = None
        # id allocation and the translated-query counter are shared by
        # every server session; one small guard covers them
        self._mutation_lock = threading.Lock()
        self._next_vertex_id = 1  # guarded-by: _mutation_lock
        self._next_edge_id = 1  # guarded-by: _mutation_lock
        self._attribute_indexes = []  # (element, key, sorted_index)
        self.queries_translated = 0  # guarded-by: _mutation_lock
        if path is not None and self.database.get_meta(self.META_KEY):
            self._restore_from_meta()

    # Views over the calling thread's request record (repro.obs.context):
    # "last" is this thread's last request on any store, and a server
    # session starts with an empty record.
    @property
    def last_query_stats(self):
        """:class:`repro.obs.stats.QueryStats` of the calling thread's
        last ``query``/``run`` call (translation trace + counters)."""
        return obs_context.current().query

    @property
    def last_analytics_stats(self):
        """:class:`repro.obs.stats.AnalyticsStats` of the calling
        thread's last analytics run (per-iteration rows/deltas/timings)."""
        return obs_context.current().analytics

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------
    def load_graph(self, graph, sample_limit=None):
        """Bulk-load *graph*; returns the loader's
        :class:`~repro.core.loader.LoadReport`."""
        self.loader = SQLGraphLoader(
            self.database, self.max_columns, sample_limit
        )
        self.schema = self.loader.load(graph)
        self.translator = GremlinTranslator(self.schema)
        # cached templates reference the previous schema's table layout
        self.translation_cache.invalidate_all()
        self.out_coloring = self.loader.out_coloring
        self.in_coloring = self.loader.in_coloring
        self.load_report = self.loader.report
        self.procedures = GraphProcedures(
            self.database,
            self.schema,
            self.out_coloring,
            self.in_coloring,
            lid_start=self.loader._next_lid,
        )
        vertex_ids = [vertex.id for vertex in graph.vertices()]
        edge_ids = [edge.id for edge in graph.edges()]
        with self._mutation_lock:
            self._next_vertex_id = max(vertex_ids, default=0) + 1
            self._next_edge_id = max(edge_ids, default=0) + 1
        self._persist_meta()
        return self.loader.report

    def create_attribute_index(self, element, key, sorted_index=False):
        """Add a user index over a JSON attribute (paper §3.4)."""
        self.database.execute(
            attribute_index_ddl(self.schema, element, key, sorted_index)
        )
        self._attribute_indexes.append((element, key, sorted_index))
        self._persist_meta()

    # ------------------------------------------------------------------
    # durability
    # ------------------------------------------------------------------
    def _persist_meta(self):
        """Record store-level state in the database's durable meta store.

        Row data recovers through the WAL; this carries the pieces that
        live outside tables: schema dimensions, the fitted colorings, the
        load report and the attribute-index list.  Id counters are *not*
        persisted — they are recomputed from MAX(vid)/MAX(eid) and the
        highest ``lid:<n>`` marker on reopen, which also covers CRUD
        performed since the last call."""
        if self.database.wal is None or self.schema is None:
            return
        self.database.put_meta(
            self.META_KEY,
            {
                "out_columns": self.schema.out_columns,
                "in_columns": self.schema.in_columns,
                "prefix": self.schema.prefix,
                "max_columns": self.max_columns,
                "out_coloring": self.out_coloring,
                "in_coloring": self.in_coloring,
                "report": self.load_report,
                "attribute_indexes": list(self._attribute_indexes),
            },
        )

    def _restore_from_meta(self):
        """Rebuild translator/procedures over a recovered database."""
        state = self.database.get_meta(self.META_KEY)
        self.max_columns = state["max_columns"]
        self.schema = SQLGraphSchema(
            state["out_columns"], state["in_columns"], state["prefix"]
        )
        self.out_coloring = state["out_coloring"]
        self.in_coloring = state["in_coloring"]
        self.load_report = state["report"]
        self._attribute_indexes = list(state["attribute_indexes"])
        self.translator = GremlinTranslator(self.schema)
        self.procedures = GraphProcedures(
            self.database,
            self.schema,
            self.out_coloring,
            self.in_coloring,
            lid_start=self._recover_lid_start(),
        )
        names = self.schema.table_names
        max_vid = self.database.execute(
            f"SELECT MAX(vid) FROM {names['va']}"
        ).scalar()
        max_eid = self.database.execute(
            f"SELECT MAX(eid) FROM {names['ea']}"
        ).scalar()
        with self._mutation_lock:
            self._next_vertex_id = max(max_vid or 0, 0) + 1
            self._next_edge_id = max(max_eid or 0, 0) + 1

    def _recover_lid_start(self):
        """Highest multi-value list id in use (from OSA/ISA markers)."""
        highest = 0
        names = self.schema.table_names
        for key in ("osa", "isa"):
            rows = self.database.execute(
                f"SELECT valid FROM {names[key]}"
            ).rows
            for (valid,) in rows:
                if isinstance(valid, str) and valid.startswith("lid:"):
                    try:
                        highest = max(highest, int(valid[4:]))
                    except ValueError:
                        pass
        return highest

    def checkpoint(self):
        """Force a checkpoint of the underlying database (durable mode)."""
        return self.database.checkpoint()

    def close(self):
        """Checkpoint and close the underlying database.  Idempotent."""
        self.database.close()

    def export_graph(self):
        """Materialize the stored graph back into a PropertyGraph.

        VA + EA together hold the full graph state (EA is the redundant
        triple copy), so the export never touches the hash tables.  Edges
        dangling from lazily-deleted vertices are skipped — this doubles as
        the paper's "off-line cleanup process".
        """
        from repro.graph.model import PropertyGraph

        names = self.schema.table_names
        graph = PropertyGraph()
        for vid, attrs in self.database.execute(
            f"SELECT vid, attr FROM {names['va']} WHERE vid >= 0"
        ).rows:
            graph.add_vertex(vid, attrs)
        for eid, outv, inv, lbl, attrs in self.database.execute(
            f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
            "WHERE eid >= 0"
        ).rows:
            if graph.get_vertex(outv) is None or graph.get_vertex(inv) is None:
                continue  # dangling edge to a lazily-deleted vertex
            graph.add_edge(outv, inv, lbl, eid, attrs)
        return graph

    def reorganize(self):
        """Re-fit the coloring hashes and rebuild the adjacency tables.

        Paper §3.4: "if updates change substantially the basic
        characteristics of the dataset on which the hashing functions were
        derived, reorganization is required for efficient performance."
        This extracts the current graph state, recolors, reloads, and
        re-creates the user's attribute indexes.  Returns the fresh load
        report.
        """
        graph = self.export_graph()
        for table_name in self.schema.table_names.values():
            self.database.execute(f"DROP TABLE IF EXISTS {table_name}")
        attribute_indexes = list(self._attribute_indexes)
        self._attribute_indexes = []
        report = self.load_graph(graph)
        for element, key, sorted_index in attribute_indexes:
            self.create_attribute_index(element, key, sorted_index)
        return report

    # ------------------------------------------------------------------
    # querying
    # ------------------------------------------------------------------
    def translate(self, gremlin_text):
        """Gremlin text → the single SQL statement that answers it."""
        query = parse_gremlin(gremlin_text)
        self._count_translation()
        return self.translator.translate(query)

    def _count_translation(self):
        with self._mutation_lock:
            self.queries_translated += 1

    def query(self, gremlin_text):
        """Run a Gremlin query; returns the engine ResultSet.

        Each call refreshes :attr:`last_query_stats` with the translation
        trace, wall times, cache hit flags and buffer-pool deltas
        (per-operator actuals come from EXPLAIN ANALYZE).
        """
        started = perf_counter()
        sql, params, trace, translation_hit = self._compile(gremlin_text)
        translated = perf_counter()
        stats = QueryStats(gremlin_text, sql, trace=trace)
        stats.translate_s = translated - started
        stats.translation_cache_hit = translation_hit
        self._charge_round_trip()
        pool = self.database.buffer_pool
        hits0, misses0, evictions0 = pool.hits, pool.misses, pool.evictions
        result = self.database.execute(sql, params)
        record = obs_context.current()
        stats.plan_cache_hit = record.plan_cache_hit
        stats.elapsed_s = perf_counter() - started
        stats.rows_returned = len(result.rows)
        execution = ExecutionStats(sql)
        execution.elapsed_s = stats.elapsed_s - stats.translate_s
        execution.rows_returned = stats.rows_returned
        execution.page_hits = pool.hits - hits0
        execution.page_misses = pool.misses - misses0
        execution.page_evictions = pool.evictions - evictions0
        stats.execution = execution
        record.query = stats
        return result

    def _compile(self, gremlin_text):
        """Gremlin text → ``(sql, params, trace, translation_cache_hit)``.

        The key pass (:func:`~repro.gremlin.lexer.slot_literals`) splits
        the text into its shape and literals.  A warm shape binds the
        literals through its slot map, so a hit runs neither the parser
        nor ``parameterize_query``; only a miss pays for translation.
        """
        shape, literals = slot_literals(gremlin_text)
        epoch = self.database.schema_epoch
        entry = self.translation_cache.get(shape, epoch=epoch)
        if entry is not None:
            statement = entry.statements.get(
                tuple([literals[slot] for slot in entry.kept]))
            if statement is not None:
                sql, recipe, trace = statement
                return sql, _bind(recipe, literals), trace, True
        query = parse_gremlin(gremlin_text)
        template, params, __ = parameterize_query(query)
        marked_sql = self.translator.translate(template)
        trace = obs_context.current().trace
        sql, recipe = strip_parameter_markers(marked_sql)
        self._count_translation()
        if entry is None:
            feeds = _learn_feeds(shape, literals)
            if feeds is not None:
                entry = _Shape(feeds, len(literals))
                self.translation_cache.put(shape, entry, epoch=epoch)
        # a shape whose map is unknown, or does not explain this text's
        # parameters, is never served from the cache
        if entry is not None and _same_values(
                _bind(entry.feeds, literals), params):
            entry.add(literals, sql, recipe, trace)
        return sql, bind_parameters(params, recipe), trace, False

    def run(self, gremlin_text):
        """Run a Gremlin query; returns the list of result values."""
        result = self.query(gremlin_text)
        if "val" not in result.columns:
            available = ", ".join(result.columns) or "no columns"
            raise GremlinError(
                f"query produced no 'val' column to unwrap "
                f"(result columns: {available}); use query() for raw rows"
            )
        position = result.columns.index("val")
        return [row[position] for row in result.rows]

    def execute_sql(self, sql, params=None):
        """Escape hatch: raw SQL against the underlying engine."""
        self._charge_round_trip()
        return self.database.execute(sql, params)

    def _charge_round_trip(self):
        if self.client is not None:
            self.client.round_trip()

    # ------------------------------------------------------------------
    # Blueprints-style CRUD (one round trip per call)
    # ------------------------------------------------------------------
    def add_vertex(self, vertex_id=None, properties=None):
        with self._mutation_lock:
            if vertex_id is None:
                vertex_id = self._next_vertex_id
            self._next_vertex_id = max(self._next_vertex_id, vertex_id + 1)
        self._charge_round_trip()
        self.procedures.add_vertex(vertex_id, properties)
        return vertex_id

    def add_edge(self, out_vertex_id, in_vertex_id, label, edge_id=None,
                 properties=None):
        with self._mutation_lock:
            if edge_id is None:
                edge_id = self._next_edge_id
            self._next_edge_id = max(self._next_edge_id, edge_id + 1)
        self._charge_round_trip()
        self.procedures.add_edge(
            edge_id, out_vertex_id, in_vertex_id, label, properties
        )
        return edge_id

    def get_vertex(self, vertex_id):
        self._charge_round_trip()
        properties = self.procedures.get_vertex_properties(vertex_id)
        if properties is None:
            return None
        return SQLVertex(self, vertex_id, properties)

    def get_edge(self, edge_id):
        self._charge_round_trip()
        row = self.procedures.get_edge_row(edge_id)
        if row is None:
            return None
        return SQLEdge(self, *row)

    def remove_vertex(self, vertex_id):
        self._charge_round_trip()
        return self.procedures.delete_vertex(vertex_id)

    def remove_edge(self, edge_id):
        self._charge_round_trip()
        return self.procedures.delete_edge(edge_id)

    def set_vertex_property(self, vertex_id, key, value):
        self._charge_round_trip()
        return self.procedures.update_vertex(vertex_id, {key: value})

    def set_edge_property(self, edge_id, key, value):
        self._charge_round_trip()
        return self.procedures.update_edge(edge_id, {key: value})

    def vertices(self):
        self._charge_round_trip()
        names = self.schema.table_names
        result = self.database.execute(
            f"SELECT vid, attr FROM {names['va']} WHERE vid >= 0"
        )
        return (SQLVertex(self, vid, attr) for vid, attr in result.rows)

    def edges(self):
        self._charge_round_trip()
        names = self.schema.table_names
        result = self.database.execute(
            f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
            "WHERE eid >= 0"
        )
        return (SQLEdge(self, *row) for row in result.rows)

    def vertex_count(self):
        names = self.schema.table_names
        return self.database.execute(
            f"SELECT COUNT(*) FROM {names['va']} WHERE vid >= 0"
        ).scalar()

    def edge_count(self):
        names = self.schema.table_names
        return self.database.execute(
            f"SELECT COUNT(*) FROM {names['ea']} WHERE eid >= 0"
        ).scalar()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def table_stats(self):
        """Row counts + loader statistics (paper Table 3 inputs)."""
        stats = {}
        for key, table_name in self.schema.table_names.items():
            stats[key] = self.database.table(table_name).live_rows
        return {
            "rows": stats,
            "load": self.load_report,
            "statistics": self.database.statistics.snapshot(),
        }

    def analyze_tables(self, table=None):
        """Collect optimizer statistics (the SQL ``ANALYZE`` statement).

        Returns ``[(table_name, row_count, sample_size), ...]`` for the
        analyzed tables.  See docs/OPTIMIZER.md.
        """
        sql = "ANALYZE" if table is None else f"ANALYZE {table}"
        return list(self.database.execute(sql).rows)

    def storage_bytes(self):
        return self.database.storage_bytes()

    # ------------------------------------------------------------------
    # bulk analytics (one logical round trip per run; see
    # repro.graph.analytics and docs/ANALYTICS.md)
    # ------------------------------------------------------------------
    def _analytics(self):
        self._charge_round_trip()
        return GraphAnalytics(self.database, self.schema.table_names)

    def pagerank(self, damping=0.85, tolerance=1e-6, max_iterations=50,
                 time_budget_s=None, cancel=None):
        """PageRank over the live graph; returns ``{vid: rank}``."""
        return self._analytics().pagerank(
            damping=damping, tolerance=tolerance,
            max_iterations=max_iterations,
            time_budget_s=time_budget_s, cancel=cancel,
        )

    def connected_components(self, max_iterations=None, time_budget_s=None,
                             cancel=None):
        """Weakly-connected components; returns ``{vid: component_id}``
        where the id is the smallest vid in the component."""
        return self._analytics().connected_components(
            max_iterations=max_iterations,
            time_budget_s=time_budget_s, cancel=cancel,
        )

    def label_propagation(self, max_iterations=20, time_budget_s=None,
                          cancel=None):
        """Deterministic synchronous label propagation; returns
        ``{vid: label}``."""
        return self._analytics().label_propagation(
            max_iterations=max_iterations,
            time_budget_s=time_budget_s, cancel=cancel,
        )

    def shortest_paths(self, source, weight_key=None, max_iterations=None,
                       time_budget_s=None, cancel=None):
        """Single-source shortest paths (directed); returns
        ``{vid: distance}`` for reachable vertices only."""
        return self._analytics().shortest_paths(
            source, weight_key=weight_key,
            max_iterations=max_iterations,
            time_budget_s=time_budget_s, cancel=cancel,
        )


class SQLVertex:
    """Lazy vertex handle: every accessor is a round trip to the store.

    Used by the pipe-at-a-time ablation (running the reference interpreter
    directly against SQLGraph's Blueprints methods, the architecture the
    paper argues against in §4.2).
    """

    __slots__ = ("_store", "id", "properties")

    def __init__(self, store, vertex_id, properties):
        self._store = store
        self.id = vertex_id
        self.properties = properties or {}

    def get_property(self, key, default=None):
        return self.properties.get(key, default)

    def vertices(self, direction, labels=()):
        store = self._store
        store._charge_round_trip()
        names = store.schema.table_names
        rows = []
        label_list = list(labels)
        label_cond = ""
        if label_list:
            placeholders = ", ".join("?" for __ in label_list)
            label_cond = f" AND lbl IN ({placeholders})"
        if direction in (Direction.OUT, Direction.BOTH):
            rows += store.database.execute(
                f"SELECT inv FROM {names['ea']} WHERE outv = ?{label_cond}",
                [self.id] + label_list,
            ).rows
        if direction in (Direction.IN, Direction.BOTH):
            rows += store.database.execute(
                f"SELECT outv FROM {names['ea']} WHERE inv = ?{label_cond}",
                [self.id] + label_list,
            ).rows
        return [store.get_vertex(row[0]) for row in rows]

    def edges(self, direction, labels=()):
        store = self._store
        store._charge_round_trip()
        names = store.schema.table_names
        label_list = list(labels)
        label_cond = ""
        if label_list:
            placeholders = ", ".join("?" for __ in label_list)
            label_cond = f" AND lbl IN ({placeholders})"
        rows = []
        if direction in (Direction.OUT, Direction.BOTH):
            rows += store.database.execute(
                f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
                f"WHERE outv = ?{label_cond}",
                [self.id] + label_list,
            ).rows
        if direction in (Direction.IN, Direction.BOTH):
            rows += store.database.execute(
                f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
                f"WHERE inv = ?{label_cond}",
                [self.id] + label_list,
            ).rows
        return [SQLEdge(store, *row) for row in rows]

    def __repr__(self):
        return f"SQLVertex({self.id})"


class SQLEdge:
    """Lazy edge handle mirroring :class:`SQLVertex`."""

    __slots__ = ("_store", "id", "outv", "inv", "label", "properties")

    def __init__(self, store, edge_id, outv, inv, label, properties):
        self._store = store
        self.id = edge_id
        self.outv = outv
        self.inv = inv
        self.label = label
        self.properties = properties or {}

    def get_property(self, key, default=None):
        return self.properties.get(key, default)

    def vertex(self, direction):
        if direction is Direction.OUT:
            return self._store.get_vertex(self.outv)
        if direction is Direction.IN:
            return self._store.get_vertex(self.inv)
        raise ValueError("edge endpoint requires OUT or IN")

    def __repr__(self):
        return f"SQLEdge({self.id}, {self.outv}-[{self.label}]->{self.inv})"

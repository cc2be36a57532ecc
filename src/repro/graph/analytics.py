"""Bulk graph analytics as iterated relational queries (docs/ANALYTICS.md).

Four algorithms — PageRank, weakly-connected components, label
propagation and single-source shortest paths — each implemented as a
*driver*: a Python loop that issues one small set of SQL joins/aggregates
per iteration against scratch tables derived from the SQLGraph adjacency
schema, checks convergence with an aggregate delta, and stops at a
bounded iteration count.  This is the "graph analytics on a relational
engine" recipe of the Vertica graph paper: the engine's join/aggregate
machinery (hash joins, batch kernels, the cost-based planner) does the
per-iteration heavy lifting; the driver only sequences statements.

Scratch database
----------------

A run only *reads* the store.  Every thread that runs analytics owns one
private, in-memory :class:`~repro.relational.database.Database`, and a
run copies the *live* graph into its ``v`` and ``e`` tables, under one
read scope on the store so both see the same snapshot:

* vertices: ``va`` rows with ``vid >= 0`` (lazy deletes excluded);
* edges: ``ea`` rows with ``eid >= 0`` whose *both* endpoints are live —
  the same dangling-edge rule as ``SQLGraphStore.export_graph``.

Iterations then run only on the scratch database, over tables named
``<algorithm>_<role>`` (``pagerank_rank``, ``sssp_front``, ...), with
``DELETE FROM`` + ``INSERT INTO ... SELECT`` swaps.  The thread creates
each table the first time it needs it; a finished run empties its tables
and keeps them, so the next run on the thread re-opens every plan the
scratch database cached.  A run that raised, timed out or was cancelled
discards the thread's scratch database instead, so no run ever sees rows
an earlier one left.

Nothing a run does reaches the store: its catalog, schema epoch, plan
cache entries beyond the two extraction reads, WAL and transaction undo
log stay as they were (``tests/test_analytics_crash.py``).

Cooperative cancellation: drivers accept a ``time_budget_s`` deadline
and a ``cancel`` callback, both checked between statements — the server
op maps them to the ``STATEMENT_TIMEOUT`` and ``SHUTTING_DOWN`` wire
errors so a draining server never waits on a long analytics loop.
"""

from __future__ import annotations

import threading
from time import monotonic, perf_counter

from repro.obs import context as obs_context
from repro.obs.stats import AnalyticsStats
from repro.relational.database import Database
from repro.relational.errors import EngineError


class AnalyticsError(EngineError):
    """Invalid analytics request (unknown source, bad option, ...)."""


class AnalyticsTimeoutError(AnalyticsError):
    """An analytics run exceeded its time budget between statements."""


class AnalyticsCancelledError(AnalyticsError):
    """An analytics run was cancelled (e.g. server drain) mid-iteration."""


#: ``database``: the calling thread's scratch database, if it has one
_LOCAL = threading.local()


def scratch_database():
    """The calling thread's scratch :class:`Database`, made on first use."""
    database = getattr(_LOCAL, "database", None)
    if database is None:
        database = _LOCAL.database = Database()
    return database


def _quote(text):
    """A single-quoted SQL string literal."""
    return "'" + str(text).replace("'", "''") + "'"


class _Run:
    """One analytics run: stats, cancellation and the scratch database.

    Use as a context manager; ``__exit__`` empties the scratch tables of
    a finished run and discards the scratch database of any other.
    """

    def __init__(self, database, algorithm, options, time_budget_s=None,
                 cancel=None):
        self.database = database
        self.scratch_db = scratch_database()
        self.stats = AnalyticsStats(algorithm, options)
        obs_context.current().analytics = self.stats
        self.deadline = (
            None if time_budget_s is None else monotonic() + time_budget_s
        )
        self.cancel = cancel
        self._started = perf_counter()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        # only a run that finished and emptied its tables hands the
        # scratch database on to the thread's next run
        _LOCAL.database = None
        if exc_type is None:
            scratch = self.scratch_db
            names = scratch.catalog.table_names()
            with scratch.scope(writes=names):
                for name in names:
                    scratch.table(name).truncate()
            _LOCAL.database = scratch
        self.stats.elapsed_s = perf_counter() - self._started
        return False

    def table(self, name, columns_sql, hashed=()):
        """The scratch table *name*, created with a hash index on each
        *hashed* column the first time the thread needs it."""
        scratch = self.scratch_db
        if not scratch.catalog.has_table(name):
            scratch.execute(f"CREATE TABLE {name} ({columns_sql})")
            for column in hashed:
                scratch.execute(f"CREATE INDEX {name}_{column} ON {name} "
                                f"({column}) USING hash")
        return name

    def scratch(self, role, columns_sql):
        """This algorithm's scratch table for *role*: ``next`` and
        ``stage`` hold doubles in one algorithm and integers in another."""
        return self.table(f"{self.stats.algorithm}_{role}", columns_sql)

    def sql(self, statement, params=None):
        """Run one statement on the scratch database, honouring deadline
        + cancel between calls.

        Values that change between iterations (the dangling mass, the
        sssp source, ...) are bound as ``?`` *params* rather than spliced
        into the text, so every fixed-shape statement keeps one entry in
        the prepared-statement/plan cache across iterations and runs.
        """
        return self._timed(self.scratch_db, statement, params)

    def read(self, statement):
        """Run one read of the store."""
        return self._timed(self.database, statement)

    def _timed(self, database, statement, params=None):
        self.check()
        started = perf_counter()
        result = database.execute(statement, params)
        self.stats.record_statement(statement, perf_counter() - started)
        return result

    def check(self):
        if self.cancel is not None and self.cancel():
            raise AnalyticsCancelledError(
                f"{self.stats.algorithm} run cancelled after "
                f"{self.stats.statements_executed} statements"
            )
        if self.deadline is not None and monotonic() > self.deadline:
            raise AnalyticsTimeoutError(
                f"{self.stats.algorithm} run exceeded its time budget "
                f"({self.stats.options.get('time_budget_s')}s) after "
                f"{len(self.stats.iterations)} iterations"
            )

    def iteration(self, rows, delta, started):
        self.stats.record_iteration(
            rows=rows, delta=delta, elapsed_s=perf_counter() - started
        )

    def finish(self, values, converged):
        self.stats.converged = converged
        self.stats.result_rows = len(values)
        return values


class GraphAnalytics:
    """Analytics drivers over one store's adjacency tables.

    :param database: the store's :class:`~repro.relational.database.
        Database`.
    :param table_names: the store schema's ``table_names`` mapping (only
        ``va``/``ea`` are read — VA+EA carry the full graph state).

    Each public method returns a plain ``{vid: value}`` dict and leaves
    an :class:`~repro.obs.stats.AnalyticsStats` on the thread's request
    record (``repro.obs.context.current().analytics``).
    """

    def __init__(self, database, table_names):
        self.database = database
        self.va = table_names["va"]
        self.ea = table_names["ea"]

    # ------------------------------------------------------------------
    # shared scratch extraction
    # ------------------------------------------------------------------
    def _extract(self, run, weight_key=None):
        """Copy the live vertices + edges into scratch ``v``/``e``.

        Returns ``(v_name, e_name, vertex_count)``.  ``e`` carries a
        ``w`` weight column: ``COALESCE(json_val(attr, key), 1)`` when a
        *weight_key* is given, constant 1 otherwise.
        """
        weight = "1.0" if weight_key is None else (
            f"COALESCE(JSON_VAL(ea.attr, {_quote(weight_key)}), 1.0)"
        )
        with self.database.scope(reads=(self.va, self.ea)):
            vertices = run.read(
                f"SELECT vid FROM {self.va} WHERE vid >= 0"
            ).rows
            edges = run.read(
                f"SELECT ea.outv, ea.inv, {weight} FROM {self.ea} ea "
                f"JOIN {self.va} src ON src.vid = ea.outv "
                f"JOIN {self.va} dst ON dst.vid = ea.inv "
                "WHERE ea.eid >= 0 AND src.vid >= 0 AND dst.vid >= 0"
            ).rows
        v = run.table("v", "vid INTEGER PRIMARY KEY")
        e = run.table("e", "src INTEGER, dst INTEGER, w DOUBLE",
                      hashed=("src", "dst"))
        scratch = run.scratch_db
        with scratch.scope(writes=(v, e)):
            scratch.table(v).insert_many(vertices)
            scratch.table(e).insert_many(edges)
        return v, e, len(vertices)

    def _result_dict(self, run, table):
        return dict(run.sql(f"SELECT * FROM {table}").rows)

    # ------------------------------------------------------------------
    # PageRank
    # ------------------------------------------------------------------
    def pagerank(self, damping=0.85, tolerance=1e-6, max_iterations=50,
                 time_budget_s=None, cancel=None):
        """Power iteration with uniform teleport and dangling-mass
        redistribution::

            rank'(v) = (1-d)/N + d * (SUM contrib(u->v) + dangling/N)

        Per iteration: one grouped 3-way join computes the incoming
        contributions (``rank/out_degree`` summed per destination), a
        LEFT JOIN anti-probe sums the dangling mass, and the L1 delta
        ``SUM(ABS(next - rank))`` decides convergence (``<= tolerance``).
        """
        options = {
            "damping": damping, "tolerance": tolerance,
            "max_iterations": max_iterations, "time_budget_s": time_budget_s,
        }
        with _Run(self.database, "pagerank", options,
                  time_budget_s, cancel) as run:
            v, e, n = self._extract(run)
            if not n:
                return run.finish({}, converged=True)
            rank = run.scratch("rank", "vid INTEGER PRIMARY KEY, val DOUBLE")
            nxt = run.scratch("next", "vid INTEGER PRIMARY KEY, val DOUBLE")
            deg = run.scratch("deg", "src INTEGER PRIMARY KEY, cnt INTEGER")
            contrib = run.scratch(
                "contrib", "vid INTEGER PRIMARY KEY, val DOUBLE"
            )
            run.sql(f"INSERT INTO {deg} SELECT src, COUNT(*) FROM {e} "
                    "GROUP BY src")
            run.sql(f"INSERT INTO {rank} SELECT vid, ? FROM {v}",
                    params=(1.0 / n,))
            base = (1.0 - damping) / n
            converged = False
            for __ in range(max_iterations):
                started = perf_counter()
                run.sql(f"DELETE FROM {contrib}")
                run.sql(
                    f"INSERT INTO {contrib} "
                    f"SELECT e.dst, SUM(r.val / d.cnt) FROM {rank} r "
                    f"JOIN {deg} d ON d.src = r.vid "
                    f"JOIN {e} e ON e.src = r.vid GROUP BY e.dst"
                )
                dangling = run.sql(
                    f"SELECT SUM(r.val) FROM {rank} r "
                    f"LEFT JOIN {deg} d ON d.src = r.vid "
                    "WHERE d.src IS NULL"
                ).scalar() or 0.0
                run.sql(f"DELETE FROM {nxt}")
                # the per-iteration dangling mass is a bound param: the
                # statement text is identical every iteration
                run.sql(
                    f"INSERT INTO {nxt} "
                    f"SELECT v.vid, ? + ? * (COALESCE(c.val, 0.0) + ?) "
                    f"FROM {v} v LEFT JOIN {contrib} c ON c.vid = v.vid",
                    params=(base, damping, dangling / n),
                )
                delta = run.sql(
                    f"SELECT SUM(ABS(n.val - r.val)) FROM {nxt} n "
                    f"JOIN {rank} r ON r.vid = n.vid"
                ).scalar() or 0.0
                run.sql(f"DELETE FROM {rank}")
                run.sql(f"INSERT INTO {rank} SELECT * FROM {nxt}")
                run.iteration(rows=n, delta=delta, started=started)
                if delta <= tolerance:
                    converged = True
                    break
            return run.finish(self._result_dict(run, rank), converged)

    # ------------------------------------------------------------------
    # weakly-connected components
    # ------------------------------------------------------------------
    def connected_components(self, max_iterations=None, time_budget_s=None,
                             cancel=None):
        """Min-label propagation over undirected reachability.

        Every vertex starts labelled with its own vid; each iteration a
        vertex takes the MIN over its own label and all neighbour labels
        (both edge directions), staged with three INSERT..SELECTs and one
        ``GROUP BY``.  Converged when no label changed — at most
        *diameter* iterations, bounded by the vertex count by default.
        The final label of every vertex is the smallest vid reachable
        from it, so component ids are stable across runs.
        """
        options = {
            "max_iterations": max_iterations, "time_budget_s": time_budget_s,
        }
        with _Run(self.database, "components", options,
                  time_budget_s, cancel) as run:
            v, e, n = self._extract(run)
            if not n:
                return run.finish({}, converged=True)
            if max_iterations is None:
                max_iterations = n + 1
            comp = run.scratch("comp", "vid INTEGER PRIMARY KEY, val INTEGER")
            nxt = run.scratch("next", "vid INTEGER PRIMARY KEY, val INTEGER")
            stage = run.scratch("stage", "vid INTEGER, val INTEGER")
            run.sql(f"INSERT INTO {comp} SELECT vid, vid FROM {v}")
            converged = False
            for __ in range(max_iterations):
                started = perf_counter()
                run.sql(f"DELETE FROM {stage}")
                run.sql(f"INSERT INTO {stage} SELECT vid, val FROM {comp}")
                run.sql(f"INSERT INTO {stage} SELECT e.dst, c.val "
                        f"FROM {comp} c JOIN {e} e ON e.src = c.vid")
                run.sql(f"INSERT INTO {stage} SELECT e.src, c.val "
                        f"FROM {comp} c JOIN {e} e ON e.dst = c.vid")
                run.sql(f"DELETE FROM {nxt}")
                run.sql(f"INSERT INTO {nxt} SELECT vid, MIN(val) "
                        f"FROM {stage} GROUP BY vid")
                changed = run.sql(
                    f"SELECT COUNT(*) FROM {nxt} n "
                    f"JOIN {comp} c ON c.vid = n.vid WHERE n.val <> c.val"
                ).scalar() or 0
                run.sql(f"DELETE FROM {comp}")
                run.sql(f"INSERT INTO {comp} SELECT * FROM {nxt}")
                run.iteration(rows=n, delta=changed, started=started)
                if not changed:
                    converged = True
                    break
            return run.finish(self._result_dict(run, comp), converged)

    # ------------------------------------------------------------------
    # label propagation
    # ------------------------------------------------------------------
    def label_propagation(self, max_iterations=20, time_budget_s=None,
                          cancel=None):
        """Synchronous, deterministic label propagation (communities).

        Vertices start with their vid as label.  Each iteration every
        vertex casts one vote for its own current label (which also
        keeps isolated vertices labelled) plus one vote per incident
        edge endpoint, both directions; the new label is the most
        frequent vote with ties broken by the smallest label (``MIN``
        over the max-count votes) — fully deterministic, so the SQL and
        oracle results match exactly.  Synchronous updates can
        oscillate on bipartite structures, hence the bounded iteration
        count; the run reports ``converged=False`` when the bound hits.
        """
        options = {
            "max_iterations": max_iterations, "time_budget_s": time_budget_s,
        }
        with _Run(self.database, "labelprop", options,
                  time_budget_s, cancel) as run:
            v, e, n = self._extract(run)
            if not n:
                return run.finish({}, converged=True)
            lab = run.scratch("lab", "vid INTEGER PRIMARY KEY, val INTEGER")
            nxt = run.scratch("next", "vid INTEGER PRIMARY KEY, val INTEGER")
            stage = run.scratch("stage", "vid INTEGER, val INTEGER")
            counts = run.scratch(
                "counts", "vid INTEGER, val INTEGER, cnt INTEGER"
            )
            best = run.scratch("best", "vid INTEGER PRIMARY KEY, cnt INTEGER")
            run.sql(f"INSERT INTO {lab} SELECT vid, vid FROM {v}")
            converged = False
            for __ in range(max_iterations):
                started = perf_counter()
                run.sql(f"DELETE FROM {stage}")
                run.sql(f"INSERT INTO {stage} SELECT vid, val FROM {lab}")
                run.sql(f"INSERT INTO {stage} SELECT e.dst, l.val "
                        f"FROM {lab} l JOIN {e} e ON e.src = l.vid")
                run.sql(f"INSERT INTO {stage} SELECT e.src, l.val "
                        f"FROM {lab} l JOIN {e} e ON e.dst = l.vid")
                run.sql(f"DELETE FROM {counts}")
                run.sql(f"INSERT INTO {counts} SELECT vid, val, COUNT(*) "
                        f"FROM {stage} GROUP BY vid, val")
                run.sql(f"DELETE FROM {best}")
                run.sql(f"INSERT INTO {best} SELECT vid, MAX(cnt) "
                        f"FROM {counts} GROUP BY vid")
                run.sql(f"DELETE FROM {nxt}")
                run.sql(
                    f"INSERT INTO {nxt} SELECT c.vid, MIN(c.val) "
                    f"FROM {counts} c, {best} b "
                    "WHERE b.vid = c.vid AND c.cnt = b.cnt GROUP BY c.vid"
                )
                changed = run.sql(
                    f"SELECT COUNT(*) FROM {nxt} n "
                    f"JOIN {lab} l ON l.vid = n.vid WHERE n.val <> l.val"
                ).scalar() or 0
                run.sql(f"DELETE FROM {lab}")
                run.sql(f"INSERT INTO {lab} SELECT * FROM {nxt}")
                run.iteration(rows=n, delta=changed, started=started)
                if not changed:
                    converged = True
                    break
            return run.finish(self._result_dict(run, lab), converged)

    # ------------------------------------------------------------------
    # single-source shortest paths
    # ------------------------------------------------------------------
    def shortest_paths(self, source, weight_key=None, max_iterations=None,
                       time_budget_s=None, cancel=None):
        """Frontier Bellman-Ford along edge direction.

        Each iteration relaxes every edge leaving the current frontier
        (``MIN(front.val + e.w) GROUP BY e.dst``), keeps only the
        candidates that improve (or first reach) a vertex, folds them
        into the distance table, and makes them the next frontier.  An
        empty frontier means convergence — at most ``N-1`` productive
        rounds for the non-negative weights this driver requires.

        Returns distances for *reachable* vertices only.  ``weight_key``
        reads ``json_val(ea.attr, key)`` per edge (missing values default
        to 1); a negative weight raises :class:`AnalyticsError`.
        """
        options = {
            "source": source, "weight_key": weight_key,
            "max_iterations": max_iterations, "time_budget_s": time_budget_s,
        }
        with _Run(self.database, "sssp", options,
                  time_budget_s, cancel) as run:
            v, e, n = self._extract(run, weight_key=weight_key)
            # every table before the first statement: a CREATE would drop
            # the statements the scratch database prepared before it
            dist = run.scratch("dist", "vid INTEGER PRIMARY KEY, val DOUBLE")
            front = run.scratch("front", "vid INTEGER PRIMARY KEY, val DOUBLE")
            nxt = run.scratch("next", "vid INTEGER PRIMARY KEY, val DOUBLE")
            cand = run.scratch("cand", "vid INTEGER PRIMARY KEY, val DOUBLE")
            stage = run.scratch("stage", "vid INTEGER, val DOUBLE")
            present = run.sql(
                f"SELECT COUNT(*) FROM {v} WHERE vid = ?",
                params=(int(source),),
            ).scalar()
            if not present:
                raise AnalyticsError(
                    f"unknown source vertex {source!r} for sssp"
                )
            if weight_key is not None:
                negative = run.sql(
                    f"SELECT COUNT(*) FROM {e} WHERE w < 0"
                ).scalar()
                if negative:
                    raise AnalyticsError(
                        f"sssp requires non-negative weights; "
                        f"{negative} edges have a negative "
                        f"{weight_key!r}"
                    )
            if max_iterations is None:
                max_iterations = n + 1
            run.sql(f"INSERT INTO {dist} VALUES (?, 0.0)",
                    params=(int(source),))
            run.sql(f"INSERT INTO {front} VALUES (?, 0.0)",
                    params=(int(source),))
            converged = False
            for __ in range(max_iterations):
                started = perf_counter()
                run.sql(f"DELETE FROM {cand}")
                run.sql(
                    f"INSERT INTO {cand} "
                    f"SELECT e.dst, MIN(f.val + e.w) FROM {front} f "
                    f"JOIN {e} e ON e.src = f.vid GROUP BY e.dst"
                )
                run.sql(f"DELETE FROM {nxt}")
                improved = run.sql(
                    f"INSERT INTO {nxt} SELECT c.vid, c.val FROM {cand} c "
                    f"LEFT JOIN {dist} t ON t.vid = c.vid "
                    "WHERE t.vid IS NULL OR c.val < t.val"
                ).rowcount
                run.iteration(rows=improved, delta=improved, started=started)
                if not improved:
                    converged = True
                    break
                run.sql(f"DELETE FROM {stage}")
                run.sql(f"INSERT INTO {stage} SELECT vid, val FROM {dist}")
                run.sql(f"INSERT INTO {stage} SELECT vid, val FROM {nxt}")
                run.sql(f"DELETE FROM {dist}")
                run.sql(f"INSERT INTO {dist} SELECT vid, MIN(val) "
                        f"FROM {stage} GROUP BY vid")
                run.sql(f"DELETE FROM {front}")
                run.sql(f"INSERT INTO {front} SELECT * FROM {nxt}")
            return run.finish(self._result_dict(run, dist), converged)

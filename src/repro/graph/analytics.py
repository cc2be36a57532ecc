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

Scratch tables
--------------

Every run materializes the *live* graph once into per-run scratch tables
(``scratch_<token>_v``, ``scratch_<token>_e``, ...) named under
:data:`~repro.relational.schema.SCRATCH_TABLE_PREFIX`:

* vertices: ``va`` rows with ``vid >= 0`` (lazy deletes excluded);
* edges: ``ea`` rows with ``eid >= 0`` whose *both* endpoints are live —
  the same dangling-edge rule as ``SQLGraphStore.export_graph``.

Iterations then mutate only scratch tables (``DELETE FROM`` +
``INSERT INTO ... SELECT`` swaps, never per-iteration DDL), so the
statement shapes stay plan-cache friendly.

Durability contract: scratch state is *never* logged.  On a durable
store the whole run executes under ``wal.pause()`` and checkpoint
snapshots skip scratch-prefixed tables, so a crash at any point during
(or after) an analytics run recovers the base tables bit-identical with
no orphaned frontier/temp tables (``tests/test_analytics_crash.py``).

Cooperative cancellation: drivers accept a ``time_budget_s`` deadline
and a ``cancel`` callback, both checked between statements — the server
op maps them to the ``STATEMENT_TIMEOUT`` and ``SHUTTING_DOWN`` wire
errors so a draining server never waits on a long analytics loop.
"""

from __future__ import annotations

import heapq
import threading
from time import monotonic, perf_counter

from repro.obs import context as obs_context
from repro.obs.stats import AnalyticsStats
from repro.relational.errors import EngineError
from repro.relational.schema import SCRATCH_TABLE_PREFIX


class AnalyticsError(EngineError):
    """Invalid analytics request (unknown source, bad option, ...)."""


class AnalyticsTimeoutError(AnalyticsError):
    """An analytics run exceeded its time budget between statements."""


class AnalyticsCancelledError(AnalyticsError):
    """An analytics run was cancelled (e.g. server drain) mid-iteration."""


#: process-wide scratch-table token pool; tokens keep concurrent runs
#: (different server sessions) from colliding on scratch names.  Released
#: tokens are reused smallest-first so back-to-back runs get the *same*
#: scratch table names — and therefore byte-identical statement texts,
#: which is what lets the prepared-statement/plan cache serve every
#: fixed-shape statement of run k+1 from run k's entries.
_TOKENS_GUARD = threading.Lock()
_FREE_TOKENS = []  # min-heap of released tokens
_NEXT_TOKEN = 1


def _acquire_token():
    global _NEXT_TOKEN
    with _TOKENS_GUARD:
        if _FREE_TOKENS:
            return heapq.heappop(_FREE_TOKENS)
        token = _NEXT_TOKEN
        _NEXT_TOKEN += 1
        return token


def _release_token(token):
    with _TOKENS_GUARD:
        heapq.heappush(_FREE_TOKENS, token)


def _quote(text):
    """A single-quoted SQL string literal."""
    return "'" + str(text).replace("'", "''") + "'"


class _Run:
    """One analytics run: scratch-table lifecycle + stats + cancellation.

    Use as a context manager; ``__exit__`` always drops the scratch
    tables (and re-enables WAL logging for this thread).
    """

    def __init__(self, database, algorithm, options, time_budget_s=None,
                 cancel=None):
        self.database = database
        self.stats = AnalyticsStats(algorithm, options)
        obs_context.current().analytics = self.stats
        self.token = _acquire_token()
        self.deadline = (
            None if time_budget_s is None else monotonic() + time_budget_s
        )
        self.cancel = cancel
        self._tables = []
        self._pause = None
        self._started = perf_counter()

    def __enter__(self):
        wal = self.database.wal
        if wal is not None:
            # nothing a run does may reach the log: scratch DDL/DML would
            # otherwise be replayed into a recovered catalog
            self._pause = wal.pause()
            self._pause.__enter__()
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            for name in reversed(self._tables):
                self.database.execute(f"DROP TABLE IF EXISTS {name}")
        finally:
            if self._pause is not None:
                self._pause.__exit__(None, None, None)
            # only after the scratch tables are gone: the next run to
            # take this token recreates them from scratch
            _release_token(self.token)
            self.stats.elapsed_s = perf_counter() - self._started
        return False

    def name(self, suffix):
        return f"{SCRATCH_TABLE_PREFIX}{self.token}_{suffix}"

    def scratch(self, suffix, columns_sql):
        """CREATE a scratch table; remembered for cleanup."""
        name = self.name(suffix)
        self.sql(f"CREATE TABLE {name} ({columns_sql})")
        self._tables.append(name)
        return name

    def index(self, table, column):
        self.sql(f"CREATE INDEX {table}_{column} ON {table} ({column}) "
                 "USING hash")

    def sql(self, statement, params=None):
        """Run one statement, honouring deadline + cancel between calls.

        Values that change between iterations (the dangling mass, the
        sssp source, ...) are bound as ``?`` *params* rather than spliced
        into the text, so every fixed-shape statement keeps one entry in
        the prepared-statement/plan cache across iterations and runs.
        """
        self.check()
        started = perf_counter()
        result = self.database.execute(statement, params)
        # the per-run token is stripped so a statement keeps one shape
        # across runs: ``INSERT INTO scratch_counts SELECT ...``
        self.stats.record_statement(
            statement.replace(self.name(""), SCRATCH_TABLE_PREFIX),
            perf_counter() - started,
        )
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
        """Materialize live vertices + edges into scratch ``v``/``e``.

        Returns ``(v_name, e_name, vertex_count)``.  ``e`` carries a
        ``w`` weight column: ``COALESCE(json_val(attr, key), 1)`` when a
        *weight_key* is given, constant 1 otherwise.
        """
        v = run.scratch("v", "vid INTEGER PRIMARY KEY")
        e = run.scratch("e", "src INTEGER, dst INTEGER, w DOUBLE")
        run.sql(f"INSERT INTO {v} SELECT vid FROM {self.va} "
                "WHERE vid >= 0")
        n = run.sql(f"SELECT COUNT(*) FROM {v}").scalar() or 0
        weight = "1.0" if weight_key is None else (
            f"COALESCE(JSON_VAL(ea.attr, {_quote(weight_key)}), 1.0)"
        )
        run.sql(
            f"INSERT INTO {e} "
            f"SELECT ea.outv, ea.inv, {weight} FROM {self.ea} ea "
            f"JOIN {self.va} src ON src.vid = ea.outv "
            f"JOIN {self.va} dst ON dst.vid = ea.inv "
            "WHERE ea.eid >= 0 AND src.vid >= 0 AND dst.vid >= 0"
        )
        run.index(e, "src")
        run.index(e, "dst")
        return v, e, n

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
            dist = run.scratch("dist", "vid INTEGER PRIMARY KEY, val DOUBLE")
            front = run.scratch("front", "vid INTEGER PRIMARY KEY, val DOUBLE")
            nxt = run.scratch("next", "vid INTEGER PRIMARY KEY, val DOUBLE")
            cand = run.scratch("cand", "vid INTEGER PRIMARY KEY, val DOUBLE")
            stage = run.scratch("stage", "vid INTEGER, val DOUBLE")
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

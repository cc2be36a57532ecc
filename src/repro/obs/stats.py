"""Per-query execution statistics: operator counters, plan annotation,
and the server's request-latency histogram.

This module is deliberately ignorant of the relational engine's classes —
it works against the small structural interface every physical operator
exposes (``batches()``, ``describe()``, ``children_ops()``,
``est_rows``), so ``repro.obs`` stays dependency-free and the engine can
import it without cycles.

The central idea: instrumentation is **opt-in per plan**.  A plan runs
untouched unless :func:`instrument_plan` wraps it first, so the disabled
path adds zero per-row work.  Wrapping replaces each operator's
``batches`` iterator with a generator that counts output and accumulates
*inclusive* wall time (time spent inside this operator's iterator,
children included — the same convention as PostgreSQL's ``EXPLAIN
ANALYZE`` actual time).  ``Operator.rows()`` reads the instrumented
instance attribute, so nothing is ever counted twice.

``rows_out`` is **exact**: the wrapper adds each batch's
``selected_count()`` — the number of positions live in its selection
vector — never the physical batch size.  ``batches_out`` additionally
reports how many blocks flowed out of the operator.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from time import perf_counter

#: annotation fields EXPLAIN ANALYZE can emit per operator; the docs test
#: (tests/test_docs_links.py) keeps docs/OBSERVABILITY.md mentioning each.
EXPLAIN_ANNOTATION_FIELDS = (
    "est_rows", "actual_rows", "batches", "time", "q_err",
)


def q_error(estimated, actual):
    """Per-operator Q-error: ``max(est/act, act/est)`` with a floor of 1
    on both sides (the standard cardinality-estimation quality metric —
    1.0 is a perfect estimate, symmetric in over- and underestimation)."""
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated / actual, actual / estimated)


class OperatorStats:
    """Actual row count, batch count and inclusive wall time for one plan
    operator, plus the planner's row estimate for est-vs-actual feedback."""

    __slots__ = ("rows_out", "batches_out", "time_s", "started", "est_rows")

    def __init__(self):
        self.rows_out = 0
        self.batches_out = 0
        self.time_s = 0.0
        self.started = False
        self.est_rows = None

    def q_error(self):
        """Q-error of this operator, or ``None`` before execution."""
        if not self.started or self.est_rows is None:
            return None
        return q_error(self.est_rows, self.rows_out)


class ExecutionStats:
    """Everything observed while executing one statement.

    ``operators`` maps ``id(operator)`` to :class:`OperatorStats` — the
    plan object itself is the key space, so the stats die with the plan.
    Counter deltas (page cache, index probes, lock waits) are filled in by
    the database facade around execution.
    """

    def __init__(self, sql=None):
        self.sql = sql
        self.operators = {}
        self.cte_plans = []  # (cte_name, instrumented plan root)
        self.elapsed_s = 0.0
        self.rows_returned = 0
        self.page_hits = 0
        self.page_misses = 0
        self.page_evictions = 0
        self.index_probes = 0
        self.index_range_scans = 0
        self.lock_wait_s = 0.0

    def operator_stats(self, operator):
        return self.operators.get(id(operator))

    def operator_q_errors(self):
        """Q-errors of every operator that executed (unordered)."""
        errors = []
        for entry in self.operators.values():
            error = entry.q_error()
            if error is not None:
                errors.append(error)
        return errors

    def median_q_error(self):
        """Median per-operator Q-error, or ``None`` if nothing executed."""
        errors = sorted(self.operator_q_errors())
        if not errors:
            return None
        middle = len(errors) // 2
        if len(errors) % 2:
            return errors[middle]
        return (errors[middle - 1] + errors[middle]) / 2

    def as_dict(self):
        return {
            "sql": self.sql,
            "elapsed_s": self.elapsed_s,
            "rows_returned": self.rows_returned,
            "page_hits": self.page_hits,
            "page_misses": self.page_misses,
            "page_evictions": self.page_evictions,
            "index_probes": self.index_probes,
            "index_range_scans": self.index_range_scans,
            "lock_wait_s": self.lock_wait_s,
            "median_q_error": self.median_q_error(),
        }


def instrument_plan(plan, stats):
    """Wrap every operator of *plan* so execution records into *stats*.

    Mutates the plan in place, so it must be a private plan, never one the
    plan cache re-opens (EXPLAIN ANALYZE plans its own).  Safe to call once per plan; wrapping an operator twice would
    double-count.
    """
    seen = set()

    def wrap(operator):
        if id(operator) in seen:
            return
        seen.add(id(operator))
        entry = OperatorStats()
        entry.est_rows = getattr(operator, "est_rows", None)
        stats.operators[id(operator)] = entry

        original = operator.batches

        def counted_batches(_original=original, _entry=entry):
            _entry.started = True
            iterator = iter(_original())
            while True:
                start = perf_counter()
                try:
                    block = next(iterator)
                except StopIteration:
                    _entry.time_s += perf_counter() - start
                    return
                _entry.time_s += perf_counter() - start
                # exact actual rows: count selected positions, never
                # the physical batch size
                _entry.rows_out += block.selected_count()
                _entry.batches_out += 1
                yield block

        operator.batches = counted_batches
        for child in operator.children_ops():
            wrap(child)

    wrap(plan)
    return plan


def render_analyzed_plan(plan, stats, indent=0):
    """Render an executed plan tree with actual row counts and timings.

    Mirrors the static ``explain_plan`` layout, adding ``actual_rows``,
    ``batches`` (once a block has flowed out) and inclusive ``time``;
    operators that never started (e.g. the probe side of a
    short-circuited join) render as ``never executed``.
    """
    entry = stats.operator_stats(plan)
    if entry is None:
        annotation = ""
    elif not entry.started:
        annotation = "  (never executed)"
    else:
        batches = (
            f" batches={entry.batches_out}" if entry.batches_out else ""
        )
        error = entry.q_error()
        q_err = f" q_err={error:.2f}" if error is not None else ""
        annotation = (
            f"  (actual_rows={entry.rows_out}{batches}"
            f" time={entry.time_s * 1000:.3f}ms{q_err})"
        )
    lines = [
        f"{'  ' * indent}{plan.describe()}  (est_rows={plan.est_rows})"
        f"{annotation}"
    ]
    for child in plan.children_ops():
        lines.extend(
            render_analyzed_plan(child, stats, indent + 1).splitlines()
        )
    return "\n".join(lines)


def render_explain_analyze(plan, stats):
    """The ``EXPLAIN ANALYZE`` report of an executed statement, as lines:
    each CTE's tree, the body's tree, then the statement-level counters."""
    lines = []
    for cte_name, cte_plan in stats.cte_plans:
        lines.append(f"CTE {cte_name}:")
        lines.extend(render_analyzed_plan(cte_plan, stats, 1).splitlines())
    lines.extend(render_analyzed_plan(plan, stats).splitlines())
    lines.append(
        f"Execution: {stats.rows_returned} rows in "
        f"{stats.elapsed_s * 1000:.3f}ms"
    )
    lines.append(
        f"Buffer pool: {stats.page_hits} hits, {stats.page_misses} "
        f"misses, {stats.page_evictions} evictions"
    )
    lines.append(
        f"Indexes: {stats.index_probes} probes, "
        f"{stats.index_range_scans} range scans"
    )
    lines.append(f"Locks: {stats.lock_wait_s * 1000:.3f}ms wait")
    median = stats.median_q_error()
    if median is not None:
        lines.append(
            f"Estimates: median q_err {median:.2f} over "
            f"{len(stats.operator_q_errors())} operators"
        )
    return lines


class TranslationTrace:
    """What the Gremlin→SQL translator did for one pipeline (paper §4.5.1).

    ``events`` is the ordered list of template applications; the named
    counters summarize which rewrites fired so tests and ``:stats`` can
    report them without string-matching SQL.
    """

    def __init__(self):
        self.events = []
        self.cte_count = 0
        self.graphquery_merges = 0
        self.vertexquery_merges = 0
        self.ea_shortcut = False
        self.path_tracking = False
        self.loop_unrolls = 0

    def record(self, event):
        self.events.append(event)

    def as_dict(self):
        return {
            "events": list(self.events),
            "cte_count": self.cte_count,
            "graphquery_merges": self.graphquery_merges,
            "vertexquery_merges": self.vertexquery_merges,
            "ea_shortcut": self.ea_shortcut,
            "path_tracking": self.path_tracking,
            "loop_unrolls": self.loop_unrolls,
        }

    def describe(self):
        flags = []
        if self.ea_shortcut:
            flags.append("EA-shortcut")
        if self.graphquery_merges:
            flags.append(f"GraphQuery-merge x{self.graphquery_merges}")
        if self.vertexquery_merges:
            flags.append(f"VertexQuery-merge x{self.vertexquery_merges}")
        if self.loop_unrolls:
            flags.append(f"loop-unroll x{self.loop_unrolls}")
        if self.path_tracking:
            flags.append("path-tracking")
        summary = ", ".join(flags) if flags else "no rewrites"
        lines = [f"{self.cte_count} CTEs; {summary}"]
        lines.extend(f"  {event}" for event in self.events)
        return "\n".join(lines)


class QueryStats:
    """Store-level view of one Gremlin query: translation + execution."""

    def __init__(self, gremlin=None, sql=None, trace=None):
        self.gremlin = gremlin
        self.sql = sql
        self.trace = trace
        self.execution = None  # ExecutionStats
        self.translate_s = 0.0
        self.elapsed_s = 0.0
        self.rows_returned = 0
        #: did this query reuse a cached Gremlin->SQL translation?
        self.translation_cache_hit = False
        #: did the engine reuse a cached prepared statement?
        self.plan_cache_hit = False
        #: scatter-gather accounting for sharded execution (``None`` on
        #: an embedded store): ``{"mode": "forward"|"scatter", "shards",
        #: "target_shard", "hops", "requests"}``
        self.sharding = None

    def as_dict(self):
        return {
            "gremlin": self.gremlin,
            "sql": self.sql,
            "translate_s": self.translate_s,
            "elapsed_s": self.elapsed_s,
            "rows_returned": self.rows_returned,
            "translation_cache_hit": self.translation_cache_hit,
            "plan_cache_hit": self.plan_cache_hit,
            "sharding": self.sharding,
            "trace": self.trace.as_dict() if self.trace else None,
            "execution": self.execution.as_dict() if self.execution else None,
        }


class TimingHistogram:
    """Wall-time observations bucketed by power-of-two microseconds.

    Tracks count / total / min / max exactly; the bucket array answers
    coarse percentile questions (:meth:`quantile`).
    """

    __slots__ = ("name", "count", "total", "minimum", "maximum", "buckets")

    #: bucket upper bounds in seconds: 1us, 2us, 4us, ... ~8.4s, +inf
    BOUNDS = tuple(1e-6 * 2 ** i for i in range(24)) + (math.inf,)

    def __init__(self, name):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.minimum = None
        self.maximum = None
        self.buckets = [0] * len(self.BOUNDS)

    def observe(self, seconds):
        self.count += 1
        self.total += seconds
        if self.minimum is None or seconds < self.minimum:
            self.minimum = seconds
        if self.maximum is None or seconds > self.maximum:
            self.maximum = seconds
        # bucket k holds BOUNDS[k-1] < seconds <= BOUNDS[k]
        self.buckets[bisect_left(self.BOUNDS, seconds)] += 1

    def mean(self):
        return self.total / self.count if self.count else 0.0

    def quantile(self, q):
        """Upper bound of the bucket holding the q-quantile observation."""
        if not self.count:
            return 0.0
        target = max(1, math.ceil(q * self.count))
        running = 0
        for i, bound in enumerate(self.BOUNDS):
            running += self.buckets[i]
            if running >= target:
                return bound
        return self.BOUNDS[-1]


class AnalyticsStats:
    """Observability record of one graph-analytics run (pagerank, ...).

    Each driver iteration appends one entry to ``iterations``:
    ``{"iteration": i, "rows": frontier/update row count,
    "delta": convergence measure (algorithm-specific; None when the
    algorithm uses pure row counts), "elapsed_s": wall time}``.  The
    totals below summarize the run for ``:stats`` and the ``analytics``
    server op.
    """

    def __init__(self, algorithm, options=None):
        self.algorithm = algorithm
        #: resolved driver options (damping, tolerance, max_iterations...)
        self.options = dict(options or {})
        self.iterations = []
        #: every SQL statement the driver issued (setup + iterations)
        self.statements_executed = 0
        #: statement text -> [executions, total seconds]: where a run's
        #: time went, statement by statement
        self.statement_times = {}
        #: False when the run stopped at ``max_iterations`` instead of at
        #: its convergence condition
        self.converged = False
        self.result_rows = 0
        self.elapsed_s = 0.0

    @property
    def iteration_count(self):
        return len(self.iterations)

    def record_statement(self, shape, elapsed_s):
        self.statements_executed += 1
        entry = self.statement_times.setdefault(shape, [0, 0.0])
        entry[0] += 1
        entry[1] += elapsed_s

    def slowest_statements(self):
        """``(shape, executions, total seconds)``, slowest first."""
        return sorted(
            ((shape, count, elapsed)
             for shape, (count, elapsed) in self.statement_times.items()),
            key=lambda entry: -entry[2],
        )

    def record_iteration(self, rows, delta, elapsed_s):
        self.iterations.append(
            {
                "iteration": len(self.iterations) + 1,
                "rows": rows,
                "delta": delta,
                "elapsed_s": elapsed_s,
            }
        )

    def as_dict(self):
        return {
            "algorithm": self.algorithm,
            "options": dict(self.options),
            "iterations": [dict(entry) for entry in self.iterations],
            "iteration_count": self.iteration_count,
            "statements_executed": self.statements_executed,
            "statements": [
                {"shape": shape, "count": count, "elapsed_s": elapsed}
                for shape, count, elapsed in self.slowest_statements()
            ],
            "converged": self.converged,
            "result_rows": self.result_rows,
            "elapsed_s": self.elapsed_s,
        }

    def describe(self):
        state = "converged" if self.converged else "iteration-capped"
        lines = [
            f"{self.algorithm}: {self.result_rows} rows, "
            f"{self.iteration_count} iterations ({state}), "
            f"{self.statements_executed} statements in "
            f"{self.elapsed_s * 1000:.3f}ms"
        ]
        for entry in self.iterations:
            delta = entry["delta"]
            delta_text = "-" if delta is None else f"{delta:.3g}"
            lines.append(
                f"  iter {entry['iteration']}: {entry['rows']} rows, "
                f"delta {delta_text}, {entry['elapsed_s'] * 1000:.3f}ms"
            )
        return "\n".join(lines)

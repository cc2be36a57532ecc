"""Re-openable physical plans: what the prepared-statement cache keeps.

A planned query is its CTE *steps* in definition order followed by the
*body* operator tree that reads them (:class:`Plan`).  Nothing in it
holds per-execution data: ``?`` values live in the :class:`Runtime`'s
parameter list, which compiled kernels read when they run; CTE results
live in ``Runtime.ctes``, filled by the steps and read by name by
``MaterializedScan``; ``IN (SELECT ...)`` answers live in
``Runtime.memo``.  So one :class:`Plan` serves execution after execution:
re-bind the list, run the steps, drain the body, reset the runtime.

Every statement that finds or computes rows runs this way.  A SELECT's
body yields its answer and an INSERT's body the rows to append (its
SELECT, or its VALUES kernels).  An UPDATE's or DELETE's body is the scan
of the target table that finds the rows to change, and an UPDATE's plan
also keeps its SET kernels; the database drains that scan through an
*apply* callable (see :meth:`Plan.execute`).

Planning still runs each step as soon as it is planned, because the next
step and the body are planned from the real row counts of the ones before
(see :mod:`repro.relational.planner`).  A plan whose steps the planner
has just run is *primed*: its first opening in that execution skips them.
"""

from __future__ import annotations

from repro.relational.batch import MaterializedRelation
from repro.relational.errors import BindError
from repro.relational.operators import hashable_row

MAX_RECURSION_ROUNDS = 100_000


class Runtime:
    """Per-execution state of one plan instance.

    ``params`` is the list of ``?`` values compiled kernels read; a
    re-execution overwrites it in place.  ``ctes`` maps a CTE name to
    ``(column_names, rows or MaterializedRelation)`` for the current
    execution only.  ``memo`` holds subquery answers, ``primed`` the
    plans (the statement's and its subqueries') whose steps the planner
    already ran, and
    ``tables`` the base tables the plan was built against.
    """

    def __init__(self, database, params=None):
        self.database = database
        self.params = list(params or ())
        self.ctes = {}
        self.memo = {}
        self.primed = set()
        self.tables = {}

    def reset(self):
        """Drop this execution's rows: a cached plan keeps none between
        executions."""
        self.ctes.clear()
        self.memo.clear()
        self.primed.clear()


class CteStep:
    """Materialize one CTE body under *name*."""

    __slots__ = ("runtime", "name", "columns", "plan")

    def __init__(self, runtime, name, columns, plan):
        self.runtime = runtime
        self.name = name
        self.columns = columns
        self.plan = plan

    def run(self):
        # columnar, so every re-scan of the body is zero-copy
        self.runtime.ctes[self.name] = (
            self.columns, MaterializedRelation.from_plan(self.plan)
        )


def _add_unseen(rows, seen, out):
    for row in rows:
        key = hashable_row(row)
        if key not in seen:
            seen.add(key)
            out.append(row)


class RecursiveCteStep:
    """``WITH RECURSIVE``, semi-naive with set semantics: the base terms
    once, then every recursive term re-opened each round with the last
    round's new rows bound as the CTE, until a round adds nothing."""

    __slots__ = ("runtime", "name", "columns", "base_terms",
                 "recursive_terms")

    def __init__(self, runtime, name, columns, base_terms):
        self.runtime = runtime
        self.name = name
        self.columns = columns
        self.base_terms = base_terms
        self.recursive_terms = []  # planned once the base rows exist

    def seed(self):
        """Run the base terms and bind their rows as the first delta;
        returns ``(seen, rows)`` for :meth:`iterate`."""
        seen, rows = set(), []
        for term in self.base_terms:
            _add_unseen(term.rows(), seen, rows)
        self.runtime.ctes[self.name] = (self.columns, rows)
        return seen, rows

    def iterate(self, seen, rows):
        ctes = self.runtime.ctes
        delta = list(rows)
        rounds = 0
        while delta:
            rounds += 1
            if rounds > MAX_RECURSION_ROUNDS:
                raise BindError(
                    f"recursive CTE {self.name!r} exceeded iteration limit"
                )
            ctes[self.name] = (self.columns, delta)
            new = []
            for term in self.recursive_terms:
                _add_unseen(term.rows(), seen, new)
            rows.extend(new)
            delta = new
        ctes[self.name] = (self.columns, rows)

    def run(self):
        self.iterate(*self.seed())


class Plan:
    """One cached plan instance of a statement: the steps that fill its
    CTEs, then the body, with its own :class:`Runtime`.  An execution
    checks it out, runs :meth:`execute` and hands it back; it is never
    shared by two executions at once.  ``assignments`` are an UPDATE's
    SET kernels, ``(column position, kernel over the body's columns)``
    each; empty for other statements."""

    __slots__ = ("runtime", "steps", "body", "assignments")

    def __init__(self, runtime, steps, body, assignments=()):
        self.runtime = runtime
        self.steps = steps
        self.body = body
        self.assignments = assignments

    def batches(self):
        primed = self.runtime.primed
        if self in primed:
            primed.discard(self)
        else:
            for step in self.steps:
                step.run()
        return self.body.batches()

    def rows(self):
        for block in self.batches():
            yield from block.iter_rows()

    @property
    def columns(self):
        return [name for __, name in self.body.columns]

    def reusable(self, params):
        """Can this plan answer for *params*?  Not when they are fewer
        than it was planned with (re-planning names the missing one), nor
        when a table it read was dropped or re-created since (a DROP that
        lands between a statement's prepare and its lock grant leaves that
        statement in hand from before the schema epoch moved)."""
        if len(params or ()) < len(self.runtime.params):
            return False
        get_table = self.runtime.database.catalog.get_table
        try:
            return all(
                get_table(name) is table
                for name, table in self.runtime.tables.items()
            )
        except BindError:
            return False

    def result(self):
        """``(column names, rows)``: the steps and the body, run.

        Blocks are transposed wholesale (``zip`` at C speed) rather than
        row by row, through the ``batches`` attribute so EXPLAIN ANALYZE
        instrumentation still counts the traffic.
        """
        rows = []
        for block in self.batches():
            rows.extend(block.iter_rows())
        return self.columns, rows

    def execute(self, params=None, apply=None):
        """Bind *params* and return ``apply(plan)`` (:meth:`result` by
        default), then reset the runtime."""
        runtime = self.runtime
        runtime.params[:] = (params or ())[:len(runtime.params)]
        try:
            return (apply or Plan.result)(self)
        finally:
            runtime.reset()


#: idle plans one cached statement keeps; executions beyond this many at
#: once plan their own and drop them afterwards
MAX_IDLE_PLANS = 8


class PlanPool:
    """The idle :class:`Plan` instances of one cached statement.

    The first execution plans exactly as an uncached one would, with real
    CTE sizes, and keeps the plan.  A later execution checks an idle plan
    out, re-binds it and re-opens it: no planning.  ``list.pop`` is
    atomic, so no two executions ever hold the same plan; when none is
    idle another is planned.  Later bindings therefore reuse the join
    order and access paths the first binding chose.
    """

    __slots__ = ("_idle",)

    def __init__(self):
        self._idle = []

    def execute(self, params, plan_fn, apply=None):
        """What one execution with *params* returns (see
        :meth:`Plan.execute`); *plan_fn* plans a fresh :class:`Plan` when
        no idle one can serve."""
        idle = self._idle
        try:
            plan = idle.pop()
        except IndexError:
            plan = None
        if plan is None or not plan.reusable(params):
            plan = plan_fn()
        result = plan.execute(params, apply)
        if len(idle) < MAX_IDLE_PLANS:
            idle.append(plan)
        return result

"""Binder + planner: turn parsed statements into physical operator trees.

This is the optimizer the paper delegates to when it says "the relational
engine does the work" (SQLGraph, SIGMOD 2015, §4): the translator emits one
``WITH ... SELECT`` per Gremlin pipeline (Table 8 templates) and relies on
this layer for access-path selection and join ordering.  The CTE-heavy plan
shapes it must handle well are exactly those of the paper's Figures 3/6
traversal queries (chains of adjacency CTEs) and Figure 4 attribute lookups
(``JSON_VAL`` expression indexes, §3.4).

The planner is cost-based but deliberately simple, with one rule whether
or not ANALYZE has run (without statistics the estimates fall back to
constants; the rule does not change):

* single-table conjuncts are pushed into scans, with access-path selection
  (hash index for equality and IN lists, sorted index for ranges / prefix
  LIKE / ``IS NOT NULL``, sequential scan otherwise); UPDATE and DELETE
  find their rows through the same chooser (:meth:`Planner.table_access`),
  and :meth:`Planner.plan` plans them, like INSERT, into the same
  cacheable :class:`~repro.relational.plan.Plan` as a SELECT;
* joins start from the driver whose first join costs least, then add the
  cheapest connected leaf; one function (:meth:`Planner._join_method`)
  prices an index nested loop into a base table against a hash join, for
  inner and left joins alike (the ``index_probe_cost`` planner option
  moves the crossover, modelling the paper's RAM vs. disk regimes of
  Figure 8);
* CTEs become steps of a :class:`~repro.relational.plan.Plan`, run in
  definition order; ``WITH RECURSIVE`` plans its terms once and re-opens
  them semi-naively each round.  Planning runs each step as soon as it is
  planned, so what follows it is planned from its real row count; the
  resulting plan is re-opened by later executions without planning again.

Observability: when :attr:`Planner.stats` is set to an
:class:`repro.obs.stats.ExecutionStats`, every non-recursive CTE sub-plan
is instrumented before it first runs and recorded in ``stats.cte_plans``
— this is how ``EXPLAIN ANALYZE`` sees inside the translator's CTE
pipelines.

The one subquery form is an uncorrelated ``IN (SELECT ...)`` (the Gremlin
translator emits no other); it is planned once and runs lazily, at most
once per execution.  Every join needs an equality between its sides: a
join without one (a θ or cross join) raises :class:`BindError`.
"""

from __future__ import annotations

import copy

from repro.relational import expressions as ex
from repro.relational import operators as op
from repro.relational.errors import BindError
from repro.relational.plan import (
    CteStep,
    Plan,
    RecursiveCteStep,
    Runtime,
)
from repro.relational.sql import ast_nodes as ast

# no-statistics fallback constants: what the planner estimates with for
# a table ANALYZE has not covered
EQ_FALLBACK_SELECTIVITY = 0.05
RANGE_SELECTIVITY = 0.3
LIKE_SELECTIVITY = 0.1
NOTNULL_SELECTIVITY = 0.9
#: cost of re-evaluating one pushed-down conjunct per index-NL-probed row
#: (relative to a sequentially scanned row)
RESIDUAL_EVAL_COST = 0.5


def split_conjuncts(expression):
    """Flatten a WHERE tree into a list of AND-ed conjuncts."""
    if expression is None:
        return []
    if isinstance(expression, ex.And):
        conjuncts = []
        for item in expression.items:
            conjuncts.extend(split_conjuncts(item))
        return conjuncts
    return [expression]


def _through_projection(value_fns, output_key_fn):
    """Lift a key kernel over a projection's output columns to run over
    its input block: project the live positions, then key them."""

    def key(columns, positions):
        projected = [fn(columns, positions) for fn in value_fns]
        return output_key_fn(projected, range(len(positions)))

    return key


#: the positions of a one-row, zero-column block (constant evaluation)
_ONE_POSITION = range(1)


def _no_columns(qualifier, name):
    raise BindError(f"column {name!r} not allowed here")


def _aliases(plan):
    """The FROM aliases *plan*'s columns come from, for error messages."""
    names = sorted({qualifier for qualifier, __ in plan.columns if qualifier})
    return ", ".join(names) or "a derived relation"


def safe_fingerprint(expression):
    try:
        return expression.fingerprint()
    except NotImplementedError:
        return None


#: a comparison read with its sides swapped (``5 < x`` is ``x > 5``)
_MIRRORED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


def _like_prefix(conjunct):
    """The text before the first wildcard of a ``LIKE`` with a literal
    pattern, or ``None`` when there is none to range-scan for."""
    pattern = conjunct.pattern
    if not isinstance(pattern, ex.Literal) or not isinstance(
        pattern.value, str
    ):
        return None
    text = pattern.value
    end = min((text.index(ch) for ch in "%_" if ch in text),
              default=len(text))
    return text[:end] or None


class Planner:
    """Plans one statement against a database + runtime.

    The runtime's parameter list is what every compiled ``?`` reads, and
    the plan's steps and the tables it resolves are recorded on the way.
    """

    def __init__(self, database, runtime=None):
        self.database = database
        self.runtime = runtime if runtime is not None else Runtime(database)
        self.params = self.runtime.params
        #: steps of the query being planned, in the order they must run
        self.steps = []
        #: optional ExecutionStats; when set, CTE sub-plans are instrumented
        self.stats = None
        #: validated planner option, read once per plan (not per join step)
        self._probe_cost = database.planner_option("index_probe_cost", 1.0)
        self._stats_cache = {}  # table name -> TableStats or None
        self._subqueries = {}  # id(statement AST) -> its Plan

    # ------------------------------------------------------------------
    # expression compilation helpers
    # ------------------------------------------------------------------
    def _ctx(self, columns=None):
        """Compile context over *columns*; ``None`` for an expression that
        must not reference any."""
        return ex.CompileContext(
            _no_columns if columns is None else op.make_resolver(columns),
            self.database.functions, self._execute_subquery,
            params=self.params,
        )

    def _const_fn(self, expression, convert=None):
        """A zero-argument callable evaluating a column-free expression
        when called — its kernel over one zero-column position: an
        operator argument re-read on every opening."""
        kernel = expression.compile_batch(self._ctx())
        if convert is None:
            return lambda: kernel((), _ONE_POSITION)[0]
        return lambda: convert(kernel((), _ONE_POSITION)[0])

    def _is_const(self, expression):
        return not expression.references()

    def _execute_subquery(self, statement_ast, derive):
        """``derive(rows)`` of an uncorrelated subquery, computed at most
        once per execution; the subquery itself is planned only once."""
        key = (id(statement_ast), derive)
        memo = self.runtime.memo
        if key not in memo:
            query = self._subqueries.get(id(statement_ast))
            if query is None:
                query = Planner(self.database, self.runtime).plan(
                    statement_ast
                )
                self._subqueries[id(statement_ast)] = query
            memo[key] = derive(query.rows())
        return memo[key]

    # ------------------------------------------------------------------
    # statement entry point
    # ------------------------------------------------------------------
    def plan(self, stmt):
        """Plan *stmt* into a re-openable :class:`Plan` whose steps have
        already run for the runtime's current binding.

        An INSERT's body yields the rows to append.  An UPDATE's or
        DELETE's body is the scan :meth:`table_access` chooses, and an
        UPDATE's SET kernels are compiled over that scan's columns.
        """
        self.steps = []
        assignments = ()
        if isinstance(stmt, ast.InsertStatement):
            body = (
                self._plan_values(stmt.rows) if stmt.query is None
                else self.plan_select_statement(stmt.query)
            )
        elif isinstance(stmt, (ast.UpdateStatement, ast.DeleteStatement)):
            body = self.table_access(stmt.table, stmt.where)
            if isinstance(stmt, ast.UpdateStatement):
                ctx = self._ctx(body.columns)
                assignments = [
                    (body.table.schema.position(column),
                     expression.compile_batch(ctx))
                    for column, expression in stmt.assignments
                ]
        else:
            body = self.plan_select_statement(stmt)
        plan = Plan(self.runtime, self.steps, body, assignments)
        self.runtime.primed.add(plan)
        return plan

    def _plan_values(self, rows):
        """An INSERT's VALUES rows: one kernel per cell, evaluated over a
        one-row, zero-column input each time the plan is opened."""
        widths = sorted({len(row) for row in rows})
        if len(widths) > 1:
            raise BindError(
                f"VALUES rows differ in length ({widths[0]} and "
                f"{widths[-1]} values)"
            )
        ctx = self._ctx()
        return op.LateralUnnestOp(
            op.MaterializedScan([()], []),
            [[expression.compile_batch(ctx) for expression in row]
             for row in rows],
            [(None, f"col{i}") for i in range(widths[0])],
        )

    def plan_select_statement(self, stmt):
        """The body operator tree of *stmt*; its CTEs are planned and run
        into :attr:`steps` on the way."""
        for cte in stmt.ctes:
            self._materialize_cte(cte, stmt.recursive)
        plan = self.plan_query_expr(stmt.body)
        if stmt.order_by:
            plan = self._apply_order_by(plan, stmt.order_by, stmt.body)
        if stmt.limit is not None or stmt.offset is not None:
            limit = None if stmt.limit is None else self._const_fn(stmt.limit, int)
            offset = (
                None if stmt.offset is None else self._const_fn(stmt.offset, int)
            )
            plan = op.LimitOp(plan, limit, offset)
        return plan

    def _apply_order_by(self, plan, order_items, body):
        """Sort the final plan.

        Keys may reference output columns (aliases, positions) or — when the
        top of the plan is a plain projection — columns of the underlying
        relation that were projected away (``SELECT name ... ORDER BY id``).
        In the latter case the sort is planned beneath the projection.
        """
        columns = plan.columns
        names = [name for __, name in columns]
        project = plan if isinstance(plan, op.ProjectOp) else None

        def output_key(expression):
            """Key kernel over the *output* columns, or None."""
            if isinstance(expression, ex.Literal) and isinstance(
                expression.value, int
            ):
                position = expression.value - 1
                if not 0 <= position < len(columns):
                    raise BindError(
                        f"ORDER BY position {expression.value} out of range"
                    )
                return ex.column_kernel(position)
            if (
                isinstance(expression, ex.ColumnRef)
                and names.count(expression.name) == 1
            ):
                return ex.column_kernel(names.index(expression.name))
            try:
                return expression.compile_batch(self._ctx(columns))
            except BindError:
                return None

        key_fns = []
        child_key_indices = []
        descending = []
        for i, item in enumerate(order_items):
            fn = output_key(item.expr)
            if fn is None and project is not None:
                try:
                    fn = item.expr.compile_batch(
                        self._ctx(project.child.columns)
                    )
                except BindError:
                    fn = None
                else:
                    child_key_indices.append(i)
            if fn is None:
                raise BindError("cannot resolve ORDER BY expression")
            key_fns.append(fn)
            descending.append(item.descending)

        if not child_key_indices:
            return op.SortOp(plan, key_fns, descending)
        # some keys live beneath the projection: sort the child, composing
        # output-level keys over the projection's value kernels
        child_fns = [
            fn if i in child_key_indices
            else _through_projection(project.value_fns, fn)
            for i, fn in enumerate(key_fns)
        ]
        sorted_child = op.SortOp(project.child, child_fns, descending)
        return op.ProjectOp(sorted_child, project.value_fns, project.columns)

    # ------------------------------------------------------------------
    # CTE materialization
    # ------------------------------------------------------------------
    def _cte_references(self, query, name):
        """Does *query* reference CTE *name* in any FROM clause?"""
        target = name.lower()

        def visit_query(node):
            if isinstance(node, ast.SelectStatement):
                return visit_query(node.body)
            if isinstance(node, ast.SetOp):
                return visit_query(node.left) or visit_query(node.right)
            if isinstance(node, ast.Select):
                return any(visit_from(item) for item in node.from_items)
            return False

        def visit_from(item):
            if isinstance(item, ast.TableRef):
                return item.name.lower() == target
            if isinstance(item, ast.Join):
                return visit_from(item.left) or visit_from(item.right)
            return False

        return visit_query(query)

    def _materialize_cte(self, cte, recursive_allowed):
        name = cte.name.lower()
        if recursive_allowed and self._cte_references(cte.query, name):
            self._materialize_recursive_cte(cte)
            return
        if isinstance(cte.query, ast.SelectStatement):
            plan = self.plan_select_statement(cte.query)
        else:
            plan = self.plan_query_expr(cte.query)
        columns = cte.columns or [col_name for __, col_name in plan.columns]
        columns = [col.lower() for col in columns]
        if len(columns) != len(plan.columns):
            raise BindError(
                f"CTE {name!r} declares {len(columns)} columns but query "
                f"produces {len(plan.columns)}"
            )
        if self.stats is not None:
            from repro.obs.stats import instrument_plan

            instrument_plan(plan, self.stats)
            self.stats.cte_plans.append((name, plan))
        # run it now, so what follows is planned from its real size, and
        # keep it for later executions
        step = CteStep(self.runtime, name, columns, plan)
        step.run()
        self.steps.append(step)

    def _materialize_recursive_cte(self, cte):
        name = cte.name.lower()
        base_terms, recursive_terms = [], []

        def collect(node):
            if isinstance(node, ast.SetOp) and node.op == "union_all":
                collect(node.left)
                collect(node.right)
            elif self._cte_references(node, name):
                recursive_terms.append(node)
            else:
                base_terms.append(node)

        collect(cte.query)
        if not recursive_terms:
            raise BindError(f"recursive CTE {name!r} has no recursive term")
        if not base_terms:
            raise BindError(f"recursive CTE {name!r} has no base term")

        # a term adds no steps of its own: it is one operator tree,
        # re-opened each round
        base = [self.plan_query_expr(term) for term in base_terms]
        columns = cte.columns or [col for __, col in base[0].columns]
        step = RecursiveCteStep(
            self.runtime, name, [col.lower() for col in columns], base
        )
        seen, rows = step.seed()
        # planned against the base rows as the first round's delta
        step.recursive_terms = [
            self.plan_query_expr(term) for term in recursive_terms
        ]
        step.iterate(seen, rows)
        self.steps.append(step)

    # ------------------------------------------------------------------
    # query expressions
    # ------------------------------------------------------------------
    def plan_query_expr(self, node):
        if isinstance(node, ast.SetOp):
            left = self.plan_query_expr(node.left)
            right = self.plan_query_expr(node.right)
            if len(left.columns) != len(right.columns):
                raise BindError("set operation children have different arity")
            children = []
            for child in (left, right):
                if isinstance(child, op.UnionAllOp):
                    children.extend(child.children)
                else:
                    children.append(child)
            union = op.UnionAllOp(children)
            # UNION is UNION ALL's rows, first occurrences kept in order
            return union if node.op == "union_all" else op.DistinctOp(union)
        if isinstance(node, ast.Select):
            return self.plan_select_core(node)
        raise BindError(f"cannot plan query node {type(node).__name__}")

    # ------------------------------------------------------------------
    # SELECT core
    # ------------------------------------------------------------------
    def plan_select_core(self, select):
        conjuncts = split_conjuncts(select.where)
        plan = self._plan_from_clause(select.from_items, conjuncts)
        if conjuncts:
            plan = op.FilterOp(
                plan, self._conjunction_kernel(conjuncts, self._ctx(plan.columns))
            )
        plan = self._apply_projection(plan, select)
        if select.distinct:
            plan = op.DistinctOp(plan)
        return plan

    def _expand_select_items(self, select, child_columns):
        """Resolve ``*`` / ``alias.*`` into explicit expression items."""
        items = []
        for item in select.items:
            if not item.star:
                items.append(item)
                continue
            for qualifier, name in child_columns:
                if item.qualifier is not None and qualifier != item.qualifier.lower():
                    continue
                items.append(
                    ast.SelectItem(expr=ex.ColumnRef(qualifier, name), alias=name)
                )
        return items

    def _contains_aggregate(self, expression):
        for node in expression.walk():
            if isinstance(node, ex.FuncCall) and (
                node.name in ex.AGGREGATE_FUNCTIONS
            ):
                return True
        return False

    def _apply_projection(self, plan, select):
        items = self._expand_select_items(select, plan.columns)
        has_aggregate = select.group_by or any(
            self._contains_aggregate(item.expr) for item in items
        )
        if has_aggregate:
            return self._apply_aggregation(plan, select, items)
        columns = [(None, self._output_name(item, i)) for i, item in enumerate(items)]
        return self._project(plan, [item.expr for item in items], columns)

    def _project(self, plan, exprs, columns):
        ctx = self._ctx(plan.columns)
        return op.ProjectOp(
            plan, [expr.compile_batch(ctx) for expr in exprs], columns
        )

    @staticmethod
    def _output_name(item, position):
        if item.alias:
            return item.alias.lower()
        if isinstance(item.expr, ex.ColumnRef):
            return item.expr.name
        return f"col{position}"

    def _apply_aggregation(self, plan, select, items):
        child_ctx = self._ctx(plan.columns)
        group_fns = [expr.compile_batch(child_ctx) for expr in select.group_by]
        group_fingerprints = [safe_fingerprint(expr) for expr in select.group_by]

        agg_specs = []  # (kind, value_kernel_or_None, distinct)
        agg_keys = {}  # fingerprint -> agg index, for dedup

        def rewrite(expression):
            fingerprint = safe_fingerprint(expression)
            if fingerprint is not None and fingerprint in group_fingerprints:
                position = group_fingerprints.index(fingerprint)
                return ex.ColumnRef(None, f"$grp{position}")
            if isinstance(expression, ex.FuncCall) and (
                expression.name in ex.AGGREGATE_FUNCTIONS
            ):
                kind = expression.name
                if kind == "count" and getattr(expression, "star", False):
                    kind = "count_star"
                    value_fn = None
                    key = ("count_star", False)
                else:
                    if len(expression.args) != 1:
                        raise BindError(
                            f"aggregate {kind} takes one argument"
                        )
                    arg_fp = safe_fingerprint(expression.args[0])
                    key = (kind, expression.distinct, arg_fp)
                    value_fn = expression.args[0].compile_batch(child_ctx)
                if key in agg_keys and key[-1] is not None:
                    position = agg_keys[key]
                else:
                    position = len(agg_specs)
                    agg_specs.append((kind, value_fn, expression.distinct))
                    agg_keys[key] = position
                return ex.ColumnRef(None, f"$agg{position}")
            rebuilt = self._rebuild_with_children(expression, rewrite)
            return rebuilt

        rewritten_items = []
        for item in items:
            rewritten_items.append((rewrite(item.expr), item))

        inner_columns = [(None, f"$grp{i}") for i in range(len(group_fns))] + [
            (None, f"$agg{i}") for i in range(len(agg_specs))
        ]
        agg_plan = op.AggregateOp(plan, group_fns, agg_specs, inner_columns)
        out_columns = [
            (None, self._output_name(item, i))
            for i, (__, item) in enumerate(rewritten_items)
        ]
        return self._project(
            agg_plan, [expr for expr, __ in rewritten_items], out_columns
        )

    def _rebuild_with_children(self, expression, transform):
        """Return a copy of *expression* with *transform* applied to child
        expressions.  Copy-on-write (never mutate): the AST may live in the
        prepared-statement cache and be planned again (another pooled plan,
        EXPLAIN)."""
        clone = None

        def target():
            nonlocal clone
            if clone is None:
                clone = copy.copy(expression)
            return clone

        for attr in ("left", "right", "operand", "pattern", "otherwise"):
            child = getattr(expression, attr, None)
            if isinstance(child, ex.Expression):
                setattr(target(), attr, transform(child))
        for attr in ("items", "args"):
            children = getattr(expression, attr, None)
            if isinstance(children, list):
                setattr(target(), attr, [
                    transform(child) if isinstance(child, ex.Expression)
                    else child
                    for child in children
                ])
        whens = getattr(expression, "whens", None)
        if isinstance(whens, list):
            target().whens = [
                (transform(cond), transform(result))
                for cond, result in whens
            ]
        return clone if clone is not None else expression

    # ------------------------------------------------------------------
    # FROM clause
    # ------------------------------------------------------------------
    def _plan_from_clause(self, from_items, conjuncts):
        if not from_items:
            return op.MaterializedScan([()], [])
        leaves = []
        for item in from_items:
            self._add_from_item(item, leaves, conjuncts)
        return self._join_leaves(leaves, conjuncts)

    def _add_from_item(self, item, leaves, conjuncts):
        if isinstance(item, ast.TableRef):
            leaves.append(self._table_leaf(item))
        elif isinstance(item, ast.Join):
            if item.kind in ("inner", "cross"):
                self._add_from_item(item.left, leaves, conjuncts)
                self._add_from_item(item.right, leaves, conjuncts)
                if item.condition is not None:
                    conjuncts.extend(split_conjuncts(item.condition))
            else:  # left outer join: plan both sides as units
                left_leaves = []
                self._add_from_item(item.left, left_leaves, conjuncts)
                left_plan = self._join_leaves(left_leaves, conjuncts)
                right_plan = self._plan_left_join(left_plan, item)
                leaves.append(right_plan)
        elif isinstance(item, ast.UnnestValues):
            if not leaves:
                raise BindError("TABLE(VALUES ...) needs a preceding FROM item")
            combined = self._join_leaves(leaves, conjuncts)
            leaves.clear()
            leaves.append(self._apply_unnest(combined, item))
        else:
            raise BindError(f"unsupported FROM item {type(item).__name__}")

    def _table_leaf(self, ref):
        name = ref.name.lower()
        alias = (ref.alias or ref.name).lower()
        runtime = self.runtime
        if name in runtime.ctes:
            columns = runtime.ctes[name][0]
            return op.MaterializedScan(
                name, [(alias, col) for col in columns], runtime=runtime
            )
        table = runtime.tables[name] = self.database.catalog.get_table(name)
        scan = op.SeqScan(table, alias)
        self._mark_base(scan, table, alias, ())
        return scan

    # ------------------------------------------------------------------
    # statistics access
    # ------------------------------------------------------------------
    def _table_stats(self, table):
        """ANALYZE statistics for *table*, or ``None`` (absent, or
        invalidated by a schema change)."""
        name = table.name
        if name in self._stats_cache:
            return self._stats_cache[name]
        registry = getattr(self.database, "statistics", None)
        entry = None
        if registry is not None:
            entry = registry.get(name, self.database.schema_epoch)
        self._stats_cache[name] = entry
        return entry

    def _attach_table_ndv(self, plan, table):
        """Stamp the cost interface's NDV map onto a base-table access."""
        tstats = self._table_stats(table)
        if tstats is not None:
            plan.stats_ndv = tstats.ndv_map()

    def _apply_unnest(self, child, unnest):
        ctx = self._ctx(child.columns)
        width = len(unnest.columns)
        rows_of_fns = []
        for row_exprs in unnest.rows:
            if len(row_exprs) != width:
                raise BindError(
                    f"VALUES row has {len(row_exprs)} expressions, alias declares "
                    f"{width} columns"
                )
            rows_of_fns.append([expr.compile_batch(ctx) for expr in row_exprs])
        alias = unnest.alias.lower()
        columns = [(alias, col.lower()) for col in unnest.columns]
        return op.LateralUnnestOp(child, rows_of_fns, columns)

    def _plan_left_join(self, left_plan, join):
        if not isinstance(join.right, ast.TableRef):
            raise BindError("LEFT JOIN right side must be a table")
        right_leaf = self._table_leaf(join.right)
        equi_pairs, residual = self._extract_equi_pairs(
            split_conjuncts(join.condition),
            set(left_plan.columns), set(right_leaf.columns),
        )
        return self._equi_join(left_plan, right_leaf, equi_pairs, residual,
                               "left")

    def _extract_equi_pairs(self, conjuncts, left_cols, right_cols):
        """Split conjuncts into (left_expr, right_expr) equi pairs + residual."""
        pairs = []
        residual = []
        for conjunct in conjuncts:
            pair = None
            if isinstance(conjunct, ex.Comparison) and conjunct.op == "=":
                left_refs = conjunct.left.references()
                right_refs = conjunct.right.references()
                if left_refs and right_refs:
                    if left_refs <= left_cols and right_refs <= right_cols:
                        pair = (conjunct.left, conjunct.right)
                    elif left_refs <= right_cols and right_refs <= left_cols:
                        pair = (conjunct.right, conjunct.left)
            if pair is not None:
                pairs.append(pair)
            else:
                residual.append(conjunct)
        return pairs, residual

    def _refs_resolvable(self, expression, columns):
        """Can every reference in *expression* be resolved against *columns*?"""
        resolver = op.make_resolver(columns)
        for qualifier, name in expression.references():
            try:
                resolver(qualifier, name)
            except BindError:
                return False
        return True

    # ------------------------------------------------------------------
    # join ordering
    # ------------------------------------------------------------------
    def _join_leaves(self, leaves, conjuncts):
        if not leaves:
            return op.MaterializedScan([()], [])
        # push single-leaf conjuncts into access paths
        prepared = []
        for leaf in leaves:
            local = [
                conjunct
                for conjunct in conjuncts
                if conjunct.references()
                and self._refs_resolvable(conjunct, leaf.columns)
            ]
            for conjunct in local:
                conjuncts.remove(conjunct)
            prepared.append(self._apply_access_path(leaf, local))
        if len(prepared) == 1:
            return prepared[0]

        # the smallest leaf is not always the right driver: putting a base
        # table on the outer side forfeits probing its join index (a
        # MaterializedScan can't be probed), so the starting leaf is chosen
        # by costing every ordered first join; each later step joins the
        # cheapest connected candidate.  Ties keep the smaller leaf first.
        remaining = sorted(prepared, key=lambda leaf: leaf.est_rows)
        current = self._cheapest_driver(remaining, conjuncts)
        remaining.remove(current)
        while remaining:
            candidate = min(remaining, key=lambda leaf: self._join_score(
                current, leaf, conjuncts, leaf.est_rows
            ))
            remaining.remove(candidate)
            current = self._join_pair(current, candidate, conjuncts)
        return current

    def _cheapest_driver(self, leaves, conjuncts):
        """The outer side of the cheapest first join over *leaves*."""
        return min(leaves, key=lambda outer: min(
            self._join_score(outer, inner, conjuncts, outer.est_rows)
            for inner in leaves if inner is not outer
        ))

    def _join_score(self, outer, inner, conjuncts, tie_break):
        """Rank joining *outer* to *inner*: connected joins first, then
        the cheaper operator, then the smaller output, then *tie_break*."""
        pairs = self._pairs_between(outer, inner, conjuncts)
        return (
            0 if pairs else 1,
            self._join_method(outer, inner, pairs)[0],
            self._estimate_join_rows(outer, inner, pairs),
            tie_break,
        )

    def _pairs_between(self, left, right, conjuncts):
        """Equi-join pairs between two plans (read-only; conjuncts kept)."""
        combined_cols = set(left.columns) | set(right.columns)
        usable = [
            conjunct
            for conjunct in conjuncts
            if self._refs_resolvable(conjunct, list(combined_cols))
        ]
        pairs, __ = self._extract_equi_pairs(
            usable, set(left.columns), set(right.columns)
        )
        return pairs

    def _join_method(self, outer, inner, pairs):
        """``(cost, index)`` of joining *outer* to *inner* on equi *pairs*:
        the one rule that picks between an index nested loop and a hash
        join.  *index* is the inner base table's index to probe, or
        ``None`` for a hash join.

        An index nested loop costs one random probe per outer row;
        ``index_probe_cost`` expresses a probe relative to a sequentially
        scanned row (≈1 in RAM, orders of magnitude more on disk, the
        paper's Figure 8 regimes).  Probing bypasses the inner's access
        path, so each of its pushed-down conjuncts is re-evaluated per
        probed row.  A hash join costs building the inner plus streaming
        the outer.  The nested loop also wins outright while the outer is
        small enough that a probe per row stays cheap.  A disconnected
        pair costs the full cross product, so it is ranked last (joining
        one raises: :meth:`_equi_join`).
        """
        outer_rows = max(outer.records_output(), 1)
        inner_rows = max(inner.records_output(), 1)
        if not pairs:
            return outer_rows * inner_rows, None
        hash_cost = inner_rows + outer_rows * 0.5
        table = getattr(inner, "base_table", None)
        if table is None or len(pairs) != 1:
            return hash_cost, None
        fingerprint = safe_fingerprint(pairs[0][1])
        index = None if fingerprint is None else table.find_index(fingerprint)
        if index is None:
            return hash_cost, None
        probe_cost = self._probe_cost + RESIDUAL_EVAL_COST * len(
            inner.pushed_conjuncts
        )
        index_cost = outer_rows * probe_cost
        if index_cost <= hash_cost or (
            outer_rows <= 1000 * min(1.0, 1.0 / probe_cost)
        ):
            return index_cost, index
        return hash_cost, None

    def _estimate_join_rows(self, left, right, pairs):
        """System-R style equi-join cardinality: ``|L||R| / Π max(ndv)``.

        Each equi-pair divides the cross product by the larger side's
        distinct count for the join key (the smaller value set matches into
        the larger).  A pair whose NDV is unknown on both sides divides by
        the smaller input — the foreign-key guess: a key join returns about
        as many rows as its larger side.
        """
        left_rows = max(left.records_output(), 1)
        right_rows = max(right.records_output(), 1)
        estimate = left_rows * right_rows
        if not pairs:
            return estimate
        for left_expr, right_expr in pairs:
            left_ndv = left.distinct_values(safe_fingerprint(left_expr))
            right_ndv = right.distinct_values(safe_fingerprint(right_expr))
            known = [ndv for ndv in (left_ndv, right_ndv) if ndv]
            denominator = max(known) if known else min(left_rows, right_rows)
            estimate /= max(denominator, 1)
        return max(1, int(estimate))

    def _join_pair(self, current, candidate, conjuncts):
        combined_columns = list(current.columns) + list(candidate.columns)
        usable = [
            conjunct
            for conjunct in conjuncts
            if self._refs_resolvable(conjunct, combined_columns)
        ]
        for conjunct in usable:
            conjuncts.remove(conjunct)
        pairs, residual = self._extract_equi_pairs(
            usable, set(current.columns), set(candidate.columns)
        )
        return self._equi_join(current, candidate, pairs, residual, "inner")

    def _equi_join(self, outer, inner, pairs, residual, kind):
        """Join *outer* to *inner* (``kind`` ``'inner'`` or ``'left'``) on
        equi *pairs* plus *residual* conjuncts, with the operator
        :meth:`_join_method` picks.  A join with no equi pair is refused:
        every join the product emits has one."""
        if not pairs:
            raise BindError(
                f"{kind} join of {_aliases(outer)} and {_aliases(inner)} "
                f"has no equality between its sides (θ and cross joins "
                f"are not supported)"
            )
        est = self._estimate_join_rows(outer, inner, pairs)
        outer_ctx = self._ctx(outer.columns)
        outer_key_fns = [pair[0].compile_batch(outer_ctx) for pair in pairs]
        __, index = self._join_method(outer, inner, pairs)
        if index is not None:
            # the inner's pushed-down conjuncts (recorded by _mark_base)
            # are re-applied as join residuals since the index bypasses
            # its access path
            table = inner.base_table
            inner_columns = [
                (inner.base_qualifier, name)
                for name in table.schema.column_names
            ]
            join_op = op.IndexNLJoinOp(
                outer, table, inner.base_qualifier, index, outer_key_fns,
                residual=self._residual_kernel(
                    list(residual) + list(inner.pushed_conjuncts),
                    list(outer.columns) + inner_columns,
                ),
                kind=kind, est_rows=est,
            )
            # inner-table NDVs for downstream join-cardinality questions
            # (the inner side is a raw table, not a child operator)
            self._attach_table_ndv(join_op, table)
            return join_op
        inner_ctx = self._ctx(inner.columns)
        inner_key_fns = [pair[1].compile_batch(inner_ctx) for pair in pairs]
        if kind == "left" or inner.est_rows <= outer.est_rows:
            return op.HashJoinOp(
                outer, inner, outer_key_fns, inner_key_fns, kind,
                self._residual_kernel(
                    residual, list(outer.columns) + list(inner.columns)
                ),
                est,
            )
        # build on the smaller (outer) side by swapping children; the
        # residual then runs over the swapped output's columns
        swapped = op.HashJoinOp(
            inner, outer, inner_key_fns, outer_key_fns, "inner", None, est,
        )
        if not residual:
            return swapped
        return op.FilterOp(
            swapped, self._residual_kernel(residual, swapped.columns), est
        )

    def _residual_kernel(self, conjuncts, columns):
        """Batch kernel for AND-ed *conjuncts* over *columns*, or ``None``
        when there are none."""
        if not conjuncts:
            return None
        return self._conjunction_kernel(conjuncts, self._ctx(columns))

    # ------------------------------------------------------------------
    # access-path selection for one leaf
    # ------------------------------------------------------------------
    def table_access(self, name, where):
        """The scan of base table *name* that finds the rows matching
        *where*: an UPDATE's or DELETE's rows come from the same
        access-path choice as a SELECT's."""
        leaf = self._table_leaf(ast.TableRef(name))
        return self._apply_access_path(leaf, split_conjuncts(where))

    def _apply_access_path(self, leaf, local_conjuncts):
        if not local_conjuncts:
            return leaf
        ctx = self._ctx(leaf.columns)
        if not isinstance(leaf, op.SeqScan):
            return op.FilterOp(
                leaf, self._conjunction_kernel(local_conjuncts, ctx),
                max(1, leaf.est_rows // 3),
            )

        table = leaf.table
        qualifier = leaf.qualifier
        chosen = None  # (operator_factory, est_rows, exact, conjunct)

        for conjunct in local_conjuncts:
            access = self._match_index_access(table, qualifier, conjunct)
            if access is None:
                continue
            if chosen is None or access[1] < chosen[1]:
                chosen = access + (conjunct,)
        if chosen is None:
            est = self._estimate_filtered(
                table.live_rows, local_conjuncts, self._table_stats(table)
            )
            scan = op.SeqScan(
                table, qualifier,
                self._conjunction_kernel(local_conjuncts, ctx), est,
            )
            self._mark_base(scan, table, qualifier, local_conjuncts)
            return scan
        factory, est, exact, consumed = chosen
        rest = [conjunct for conjunct in local_conjuncts if conjunct is not consumed]
        if rest:
            est = self._estimate_filtered(est, rest, self._table_stats(table))
        if not exact:
            # the index only narrowed the conjunct (a LIKE beyond its
            # prefix): re-check it on the fetched rows
            rest.insert(0, consumed)
        predicate = self._conjunction_kernel(rest, ctx) if rest else None
        scan = factory(predicate, max(1, int(est)))
        self._mark_base(scan, table, qualifier, local_conjuncts)
        return scan

    def _mark_base(self, scan, table, qualifier, pushed_conjuncts):
        """Record pushdown provenance so joins can re-derive residuals."""
        scan.base_table = table
        scan.base_qualifier = qualifier
        scan.pushed_conjuncts = list(pushed_conjuncts)
        self._attach_table_ndv(scan, table)

    def _conjunction_kernel(self, conjuncts, ctx):
        """Batch kernel for AND-ed *conjuncts*."""
        if len(conjuncts) == 1:
            return conjuncts[0].compile_batch(ctx)
        return ex.And(list(conjuncts)).compile_batch(ctx)

    def _estimate_filtered(self, base_rows, conjuncts, tstats=None):
        estimate = base_rows
        for conjunct in conjuncts:
            estimate *= self._conjunct_selectivity(conjunct, tstats)
        return max(1, int(estimate))

    def _conjunct_selectivity(self, conjunct, tstats):
        """Selectivity of one conjunct: histogram/MCV answer when ANALYZE
        statistics cover the referenced expression, the classic constants
        otherwise (the exact pre-statistics behavior)."""
        if tstats is not None:
            selectivity = self._stats_selectivity(conjunct, tstats)
            if selectivity is not None:
                return selectivity
        if isinstance(conjunct, ex.Comparison) and conjunct.op == "=":
            return EQ_FALLBACK_SELECTIVITY
        if isinstance(conjunct, ex.Comparison):
            return RANGE_SELECTIVITY
        if isinstance(conjunct, ex.Like):
            return LIKE_SELECTIVITY
        if isinstance(conjunct, ex.IsNull) and conjunct.negated:
            return NOTNULL_SELECTIVITY
        return 0.5

    def _stats_selectivity(self, conjunct, tstats):
        """Answer *conjunct* from column statistics, or ``None`` when they
        cannot (no matching column stats, non-constant comparison, ...)."""
        if isinstance(conjunct, ex.Comparison):
            sides = [
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ]
            for key_side, value_side in sides:
                if not self._is_const(value_side):
                    continue
                if not key_side.references():
                    continue
                column = tstats.column(safe_fingerprint(key_side))
                if column is None:
                    continue
                value = self._const_fn(value_side)()
                operator = conjunct.op
                if key_side is conjunct.right:
                    operator = _MIRRORED.get(operator, operator)
                if operator == "=":
                    return column.eq_selectivity(value)
                if operator in ("<>", "!="):
                    return column.ne_selectivity(value)
                if operator in ("<", "<="):
                    return column.range_selectivity(
                        None, value, high_inclusive=operator == "<="
                    )
                if operator in (">", ">="):
                    return column.range_selectivity(
                        value, None, low_inclusive=operator == ">="
                    )
                return None
            return None
        if isinstance(conjunct, ex.InList) and not conjunct.negated:
            if not all(self._is_const(item) for item in conjunct.items):
                return None
            column = tstats.column(safe_fingerprint(conjunct.operand))
            if column is None:
                return None
            return column.in_list_selectivity(
                [self._const_fn(item)() for item in conjunct.items]
            )
        if isinstance(conjunct, ex.Like) and not conjunct.negated:
            prefix = _like_prefix(conjunct)
            if prefix is None:
                return None
            column = tstats.column(safe_fingerprint(conjunct.operand))
            if column is None:
                return None
            return column.like_prefix_selectivity(prefix)
        if isinstance(conjunct, ex.IsNull):
            column = tstats.column(safe_fingerprint(conjunct.operand))
            if column is None:
                return None
            if conjunct.negated:
                return column.not_null_selectivity()
            return column.null_selectivity()
        return None

    def _index_access_est(self, table, conjunct, fallback_est):
        """Index-access row estimate: statistics-based when available."""
        tstats = self._table_stats(table)
        if tstats is not None:
            selectivity = self._stats_selectivity(conjunct, tstats)
            if selectivity is not None:
                return max(1, int(table.live_rows * selectivity))
        return fallback_est

    def _match_index_access(self, table, qualifier, conjunct):
        """Try to satisfy *conjunct* with an index; returns ``(factory,
        est_rows, exact)`` — *exact* is False when the index only narrows
        the conjunct, which must then stay in the scan's predicate."""
        if isinstance(conjunct, ex.Comparison):
            return self._match_comparison_index(table, qualifier, conjunct)
        if not isinstance(conjunct, (ex.IsNull, ex.Like, ex.InList)):
            return None
        # a parameter, subquery or CASE operand has no fingerprint
        fingerprint = safe_fingerprint(conjunct.operand)
        if fingerprint is None:
            return None
        if isinstance(conjunct, ex.IsNull) and conjunct.negated:
            index = table.find_index(fingerprint, kind="sorted")
            if index is None:
                return None
            est = self._index_access_est(
                table, conjunct,
                max(1, int(table.live_rows * NOTNULL_SELECTIVITY)),
            )

            def factory(predicate, est_rows, _index=index):
                return op.IndexRangeScan(
                    table, qualifier, _index, None, None, True, True,
                    predicate, est_rows,
                )

            return factory, est, True
        if isinstance(conjunct, ex.Like) and not conjunct.negated:
            prefix = _like_prefix(conjunct)
            if prefix is None:
                return None
            index = table.find_index(fingerprint, kind="sorted")
            if index is None:
                return None
            est = self._index_access_est(
                table, conjunct,
                max(1, int(table.live_rows * LIKE_SELECTIVITY)),
            )
            high = prefix + "￿"

            def factory(predicate, est_rows, _index=index):
                return op.IndexRangeScan(
                    table, qualifier, _index, prefix, high, True, True,
                    predicate, est_rows,
                )

            return factory, est, prefix == conjunct.pattern.value
        if isinstance(conjunct, ex.InList) and not conjunct.negated:
            # any constant item works (literals and bound parameters alike)
            if not all(self._is_const(item) for item in conjunct.items):
                return None
            index = table.find_index(fingerprint)
            if index is None:
                return None
            key_fns = [self._const_fn(item) for item in conjunct.items]
            ndv = max(index.distinct_keys(), 1)
            est = self._index_access_est(
                table, conjunct, max(1, len(key_fns) * table.live_rows // ndv)
            )

            def factory(predicate, est_rows, _index=index, _key_fns=key_fns):
                return op.IndexEqScan(
                    table, qualifier, _index, _key_fns, predicate, est_rows
                )

            return factory, est, True
        return None

    def _match_comparison_index(self, table, qualifier, conjunct):
        sides = [
            (conjunct.left, conjunct.right),
            (conjunct.right, conjunct.left),
        ]
        for key_side, value_side in sides:
            if not self._is_const(value_side):
                continue
            if not key_side.references():
                continue
            try:
                fingerprint = key_side.fingerprint()
            except NotImplementedError:
                continue
            if conjunct.op == "=":
                index = table.find_index(fingerprint)
                if index is None:
                    continue
                key_fn = self._const_fn(value_side)
                ndv = max(index.distinct_keys(), 1)
                est = self._index_access_est(
                    table, conjunct, max(1, table.live_rows // ndv)
                )

                def factory(predicate, est_rows, _index=index, _key=key_fn):
                    return op.IndexEqScan(
                        table, qualifier, _index, [_key], predicate, est_rows
                    )

                return factory, est, True
            if conjunct.op in ("<", "<=", ">", ">="):
                index = table.find_index(fingerprint, kind="sorted")
                if index is None:
                    continue
                bound = self._const_fn(value_side)
                # normalize so the key side is on the left
                operator = conjunct.op
                if key_side is conjunct.right:
                    operator = _MIRRORED[operator]
                low = high = None
                low_inc = high_inc = True
                if operator in ("<", "<="):
                    high = bound
                    high_inc = operator == "<="
                else:
                    low = bound
                    low_inc = operator == ">="
                est = self._index_access_est(
                    table, conjunct,
                    max(1, int(table.live_rows * RANGE_SELECTIVITY)),
                )

                def factory(
                    predicate, est_rows, _index=index, _low=low, _high=high,
                    _li=low_inc, _hi=high_inc,
                ):
                    return op.IndexRangeScan(
                        table, qualifier, _index, _low, _high, _li, _hi,
                        predicate, est_rows,
                    )

                return factory, est, True
        return None

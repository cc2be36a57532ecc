"""The SQL/translation invariant checker.

Every query in the golden corpus (:mod:`tests.corpus`) is run
through the production translation pipeline — ``parse_gremlin`` →
``parameterize_query`` → ``GremlinTranslator.translate`` →
``strip_parameter_markers`` — and the resulting SQL through the in-repo
``repro.relational.sql`` parser.  On the parsed statement we verify the
invariants the paper's templates promise:

* the SQL **parses** under the engine's own grammar;
* every referenced **CTE is defined exactly once, before use** (the
  translator emits ``WITH`` chains in dependency order; a dangling or
  duplicated ``temp_N`` is a broken template);
* the **parameter-slot bookkeeping** is closed: the number of ``?``
  placeholders equals the binding recipe's length, every recipe slot
  indexes into the extracted value vector, and every extracted value is
  actually used (an unused slot means the plan-cache key over-splits);
* base-table scans of VA/EA carry the **lazy-delete filter**
  (``vid >= 0`` / ``eid >= 0``, paper §4.5.2's negative-id deletes) —
  required exactly when the scan is the sole FROM item, i.e. a ``g.V`` /
  ``g.E`` start CTE; joined scans ride on already-filtered inputs;
* adjacency unnests stay within the **column budget**: every
  ``(eid_i, lbl_i, val_i)`` triad enumerated by a ``TABLE(VALUES ...)``
  over OPA/IPA uses an index below the coloring's ``out_columns`` /
  ``in_columns`` and enumerates every triad exactly once.

:func:`verify_translation` checks one Gremlin query and returns problem
strings; ``tests/test_sql_invariants.py`` maps the whole corpus through
it and feeds :func:`verify_sql` deliberately broken SQL.
"""

from __future__ import annotations

import dataclasses
import re

_TRIAD = re.compile(r"^(eid|lbl|val)(\d+)$")


# ---------------------------------------------------------------------------
# generic walking over the relational AST
# ---------------------------------------------------------------------------

def _walk_nodes(node):
    """Yield every statement/expression node reachable from *node*."""
    from repro.relational.expressions import Expression

    if node is None or isinstance(node, (str, int, float, bool)):
        return
    if isinstance(node, (list, tuple)):
        for item in node:
            yield from _walk_nodes(item)
        return
    if isinstance(node, Expression):
        for expression in node.walk():
            yield expression
            plan = getattr(expression, "plan", None)
            if plan is not None:
                yield from _walk_nodes(plan)
        return
    if dataclasses.is_dataclass(node):
        yield node
        for field in dataclasses.fields(node):
            yield from _walk_nodes(getattr(node, field.name))


def _selects(node):
    from repro.relational.sql.ast_nodes import Select

    return [n for n in _walk_nodes(node) if isinstance(n, Select)]


def _from_entries(select):
    """Flatten a Select's FROM list through Join nesting."""
    from repro.relational.sql.ast_nodes import Join

    entries = []

    def flatten(item):
        if isinstance(item, Join):
            flatten(item.left)
            flatten(item.right)
        else:
            entries.append(item)

    for item in select.from_items:
        flatten(item)
    return entries


def _conjuncts(where):
    from repro.relational.expressions import And

    if where is None:
        return []
    if isinstance(where, And):
        flat = []
        for item in where.items:
            flat.extend(_conjuncts(item))
        return flat
    return [where]


def _has_lazy_filter(select, column):
    """Does the WHERE carry a top-level ``<column> >= 0`` conjunct?"""
    from repro.relational.expressions import Comparison, ColumnRef, Literal

    for conjunct in _conjuncts(select.where):
        if (
            isinstance(conjunct, Comparison)
            and conjunct.op == ">="
            and isinstance(conjunct.left, ColumnRef)
            and conjunct.left.name == column
            and isinstance(conjunct.right, Literal)
            and conjunct.right.value == 0
        ):
            return True
    return False


# ---------------------------------------------------------------------------
# the invariants
# ---------------------------------------------------------------------------

def verify_sql(schema, sql, recipe=None, value_count=None):
    """Problems with one translated statement (empty list = clean)."""
    from repro.relational.errors import EngineError
    from repro.relational.expressions import Parameter
    from repro.relational.sql.ast_nodes import (
        SelectStatement, TableRef, UnnestValues,
    )
    from repro.relational.sql.parser import parse_statement

    problems = []
    try:
        statement = parse_statement(sql)
    except EngineError as exc:
        return [f"does not parse: {exc}"]
    if not isinstance(statement, SelectStatement):
        return [f"translated to {type(statement).__name__}, expected SELECT"]

    base_tables = {name.lower() for name in schema.table_names.values()}
    va = schema.table_names["va"].lower()
    ea = schema.table_names["ea"].lower()
    opa = schema.table_names["opa"].lower()
    ipa = schema.table_names["ipa"].lower()

    # CTE well-formedness: unique names, referenced-before-use resolution
    defined = []
    for cte in statement.ctes:
        name = cte.name.lower()
        if name in defined:
            problems.append(f"CTE '{cte.name}' defined more than once")
        visible = set(defined) | base_tables
        for select in _selects(cte.query):
            for entry in _from_entries(select):
                if isinstance(entry, TableRef) \
                        and entry.name.lower() not in visible:
                    problems.append(
                        f"CTE '{cte.name}' references undefined table "
                        f"'{entry.name}'"
                    )
        defined.append(name)
    visible = set(defined) | base_tables
    for select in _selects(statement.body):
        for entry in _from_entries(select):
            if isinstance(entry, TableRef) \
                    and entry.name.lower() not in visible:
                problems.append(
                    f"query body references undefined table '{entry.name}'"
                )

    # parameter-slot bookkeeping
    if recipe is not None:
        placeholders = sum(
            isinstance(node, Parameter) for node in _walk_nodes(statement)
        )
        if placeholders != len(recipe):
            problems.append(
                f"{placeholders} '?' placeholder(s) but the binding recipe "
                f"has {len(recipe)} slot(s)"
            )
        if value_count is not None:
            out_of_range = [s for s in recipe if not 0 <= s < value_count]
            if out_of_range:
                problems.append(
                    f"recipe slots {out_of_range} outside the "
                    f"{value_count}-value parameter vector"
                )
            unused = set(range(value_count)) - set(recipe)
            if unused:
                problems.append(
                    f"extracted parameter slot(s) {sorted(unused)} never "
                    f"bound — the cache key over-splits"
                )

    # lazy-delete filters + adjacency column budget, per query block
    for select in _selects(statement):
        entries = _from_entries(select)
        tables = [e for e in entries if isinstance(e, TableRef)]
        unnests = [e for e in entries if isinstance(e, UnnestValues)]
        if len(entries) == 1 and len(tables) == 1:
            name = tables[0].name.lower()
            if name == va and not _has_lazy_filter(select, "vid"):
                problems.append(
                    "base scan of VA lacks the 'vid >= 0' lazy-delete filter"
                )
            if name == ea and not _has_lazy_filter(select, "eid"):
                problems.append(
                    "base scan of EA lacks the 'eid >= 0' lazy-delete filter"
                )
        adjacency = {t.name.lower() for t in tables} & {opa, ipa}
        for unnest in unnests:
            if not adjacency:
                continue
            budget = schema.out_columns if opa in adjacency \
                else schema.in_columns
            problems.extend(_check_unnest(unnest, budget, adjacency))
    return problems


def _check_unnest(unnest, budget, adjacency):
    from repro.relational.expressions import ColumnRef

    problems = []
    which = "/".join(sorted(adjacency)).upper()
    if len(unnest.rows) != budget:
        problems.append(
            f"unnest over {which} enumerates {len(unnest.rows)} triad(s), "
            f"column budget is {budget}"
        )
    seen = set()
    for row in unnest.rows:
        if len(row) != 3:
            problems.append(
                f"unnest row over {which} has {len(row)} column(s), "
                f"expected an (eid, lbl, val) triad"
            )
            continue
        indexes = set()
        for position, part in zip(("eid", "lbl", "val"), row):
            if not isinstance(part, ColumnRef):
                problems.append(
                    f"unnest {position} entry over {which} is not a column "
                    f"reference"
                )
                continue
            match = _TRIAD.match(part.name)
            if not match or match.group(1) != position:
                problems.append(
                    f"unnest {position} entry reads '{part.name}', expected "
                    f"'{position}<i>'"
                )
                continue
            indexes.add(int(match.group(2)))
        if len(indexes) == 1:
            index = indexes.pop()
            if index >= budget:
                problems.append(
                    f"triad index {index} over {which} exceeds the column "
                    f"budget {budget}"
                )
            if index in seen:
                problems.append(
                    f"triad index {index} over {which} enumerated twice"
                )
            seen.add(index)
        elif indexes:
            problems.append(
                f"unnest row over {which} mixes triad indexes {sorted(indexes)}"
            )
    return problems


def verify_translation(store, gremlin_text):
    """Translate one Gremlin query the way the plan cache does and verify.

    Returns a list of problem strings (empty = all invariants hold).
    """
    from repro.core.translator import parameterize_query, \
        strip_parameter_markers
    from repro.gremlin import parse_gremlin
    from repro.gremlin.errors import GremlinError

    try:
        template, values, _key = parameterize_query(parse_gremlin(gremlin_text))
        marked = store.translator.translate(template)
        sql, recipe = strip_parameter_markers(marked)
    except GremlinError as exc:
        return [f"does not translate: {exc}"]
    return verify_sql(store.schema, sql, recipe=recipe,
                      value_count=len(values))


"""Gremlin → single-SQL translation (paper §4, Table 8).

Each pipe is translated by a CTE template; the templates are composed in
pipeline order and the final query is one ``WITH ... SELECT`` statement.
Implemented optimizations from §4.5.1:

* **GraphQuery merge** — attribute filters immediately following ``g.V`` /
  ``g.E`` are folded into the start CTE's WHERE clause;
* **VertexQuery merge** — edge-attribute filters immediately following
  ``outE``/``inE``/``bothE`` are folded into the incident-edge CTE;
* **EA shortcut** — when a query contains exactly one graph-traversal step,
  adjacency is answered from the redundant edge table EA instead of the
  OPA/OSA join (paper §3.5, Table 4);
* **loop unrolling** — fixed-depth loops are expanded into repeated CTEs;
  a loop without a static ``it.loops < N`` bound is rejected
  (``UnsupportedPipeError``): the translator never emits ``WITH RECURSIVE``.

Path tracking (for ``path`` / ``simplePath`` / ``back`` / branch filters)
adds a ``path`` column threaded through every template, stored as a tuple
and manipulated with the ``PATH_INIT`` / ``ELEMENT_AT`` / ``PATH_PREFIX``
SQL functions.

Side-effect pipes are identity functions, and closures outside the
restricted closure language are rejected — the paper's stated limitations
(§4.4).

Paper artifact map: the per-pipe CTE templates implement **Table 8** (start
pipes, out/in/both via OPA/OSA resp. IPA/ISA, outE/inE, outV/inV, property
and filter pipes, path manipulation); the GraphQuery/VertexQuery merges and
the EA shortcut are the **§4.5.1** rewrites measured in **Table 4**; loop
handling is **§4.3**.

Observability: every translation records a
:class:`repro.obs.stats.TranslationTrace` (left on the thread's request
record as ``repro.obs.context.current().trace``) naming each template
applied, the CTE it produced, which merge rules fired, and whether the EA
single-step shortcut was taken — see docs/OBSERVABILITY.md.
"""

from __future__ import annotations

import dataclasses

from repro.gremlin import closures as cl
from repro.gremlin import pipes as p
from repro.gremlin.errors import UnsupportedPipeError
from repro.obs import context as obs_context
from repro.obs.stats import TranslationTrace

VERTEX = "vertex"
EDGE = "edge"
VALUE = "value"
PATH = "path"

_TRAVERSAL_PIPES = (p.Adjacent, p.IncidentEdges, p.EdgeVertex, p.LoopPipe)
_MERGEABLE_FILTERS = (p.HasPipe, p.HasNotPipe, p.IntervalPipe)


class ParamLiteral:
    """Placeholder for an extracted query literal (template parameter).

    :func:`parameterize_query` replaces literals in a parsed pipeline with
    these sentinels; the translator renders them as ``{?slot}`` markers,
    which :func:`strip_parameter_markers` later converts to SQL ``?``
    placeholders while recording the binding order.
    """

    __slots__ = ("slot",)

    def __init__(self, slot):
        self.slot = slot

    @property
    def marker(self):
        return "{?%d}" % self.slot

    def __repr__(self):
        return f"<?{self.slot}>"


def sql_literal(value):
    """Render a Python value as a SQL literal."""
    if isinstance(value, ParamLiteral):
        return value.marker
    if value is None:
        return "NULL"
    if isinstance(value, bool):
        return "TRUE" if value else "FALSE"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return "'" + value.replace("'", "''") + "'"
    raise UnsupportedPipeError(f"cannot render literal {value!r}")


class GremlinTranslator:
    """Translates parsed Gremlin queries against one SQLGraph schema."""

    def __init__(self, schema):
        self.schema = schema

    def translate(self, query):
        """Return the SQL text for *query* (a GremlinQuery); its trace
        goes to the calling thread's request record."""
        translation = _Translation(self.schema, list(query.pipes))
        sql = translation.build()
        obs_context.current().trace = translation.trace
        return sql


class _Translation:
    def __init__(self, schema, pipes):
        self.schema = schema
        self.pipes = pipes
        self.names = schema.table_names
        self.ctes = []  # (name, sql)
        self.counter = 0
        self.track_path = self._needs_path(pipes)
        self.elem_type = None
        self.current = None  # name of the CTE holding the current objects
        self.path_len = 0  # static number of path-extending steps so far
        self.path_types = []  # element type at each path position
        self.marks = {}  # as-name -> path index
        self.aggregates = {}  # aggregate-name -> cte name
        self.trace = TranslationTrace()
        self.trace.path_tracking = self.track_path

    # ------------------------------------------------------------------
    # driver
    # ------------------------------------------------------------------
    def build(self):
        traversal_steps = sum(
            isinstance(pipe, _TRAVERSAL_PIPES) for pipe in self.pipes
        )
        self.single_traversal = traversal_steps <= 1
        i = 0
        while i < len(self.pipes):
            pipe = self.pipes[i]
            if isinstance(pipe, (p.StartVertices, p.StartEdges)):
                i = self._translate_start(i)
            elif isinstance(pipe, p.LoopPipe):
                self._translate_loop(i)
                i += 1
            elif isinstance(pipe, p.CopySplitPipe):
                merge = self.pipes[i + 1] if i + 1 < len(self.pipes) else None
                if not isinstance(merge, p.MergePipe):
                    raise UnsupportedPipeError("copySplit requires a merge pipe")
                self._translate_copysplit(pipe)
                i += 2
            elif isinstance(pipe, p.IncidentEdges):
                i = self._translate_incident(i)
            else:
                self._translate_pipe(pipe, i)
                i += 1
        select_list = "val, path" if self.track_path else "val"
        body = ",\n".join(f"{name} AS ({sql})" for name, sql in self.ctes)
        return f"WITH {body}\nSELECT {select_list} FROM {self.current}"

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    @staticmethod
    def _needs_path(pipes):
        def scan(items):
            for pipe in items:
                if isinstance(
                    pipe,
                    (p.PathPipe, p.SimplePathPipe, p.CyclicPathPipe, p.BackPipe,
                     p.SelectPipe),
                ):
                    return True
                for branch_list in getattr(pipe, "branches", []) or []:
                    if scan(branch_list):
                        return True
            return False

        return scan(pipes)

    def _new_cte(self, sql, template="cte"):
        name = f"temp_{self.counter}"
        self.counter += 1
        self.ctes.append((name, sql))
        self.current = name
        self.trace.cte_count += 1
        self.trace.record(f"{name}: {template}")
        return name

    def _extend(self, elem_type):
        """Record a path-extending step producing *elem_type* objects."""
        self.elem_type = elem_type
        self.path_len += 1
        self.path_types.append(elem_type)

    def _path_select(self, new_value_sql, input_alias="v"):
        """SELECT fragment for the path column when tracking paths."""
        return f", ({input_alias}.path || {new_value_sql}) AS path"

    def _label_condition(self, alias_column, labels):
        if not labels:
            return ""
        if len(labels) == 1:
            return f" AND {alias_column} = {sql_literal(labels[0])}"
        rendered = ", ".join(sql_literal(label) for label in labels)
        return f" AND {alias_column} IN ({rendered})"

    # ------------------------------------------------------------------
    # start pipes (with GraphQuery merging)
    # ------------------------------------------------------------------
    def _translate_start(self, position):
        pipe = self.pipes[position]
        merged, next_position = self._collect_mergeable(position + 1)
        if isinstance(pipe, p.StartVertices):
            elem_type, table, column, start = VERTEX, "va", "p.vid", "g.V"
        else:
            elem_type, table, column, start = EDGE, "ea", "p.eid", "g.E"
        sources = f"{self.names[table]} p"
        conditions = [f"{column} >= 0"]
        if len(pipe.ids) == 1:
            conditions.append(f"{column} IN ({sql_literal(pipe.ids[0])})")
        elif pipe.ids:
            # a join, not IN: each repeated id starts one more traverser
            ids = self._new_cte(" UNION ALL ".join(
                f"SELECT {sql_literal(i)} AS val" for i in pipe.ids
            ), f"{start} id list")
            sources = f"{ids} i, {sources}"
            conditions.append(f"{column} = i.val")
        if pipe.key is not None:
            conditions.append(self._attribute_condition(
                "p", elem_type, pipe.key, "==", pipe.value))
        for filt in merged:
            conditions.append(
                self._filter_condition("p", elem_type, filt, column))
        path = f", PATH_INIT({column}) AS path" if self.track_path else ""
        sql = (
            f"SELECT {column} AS val{path} FROM {sources} WHERE "
            + " AND ".join(conditions)
        )
        if merged:
            self.trace.graphquery_merges += len(merged)
            template = f"{start} start + GraphQuery merge of {len(merged)} filter(s)"
        else:
            template = f"{start} start"
        self._new_cte(sql, template)
        self._extend(elem_type)
        return next_position

    def _collect_mergeable(self, position):
        """GraphQuery/VertexQuery rewrite: gather following filter pipes."""
        merged = []
        while position < len(self.pipes):
            pipe = self.pipes[position]
            if isinstance(pipe, _MERGEABLE_FILTERS):
                merged.append(pipe)
                position += 1
            elif isinstance(pipe, p.FilterClosurePipe) and (
                not cl.references_only_loops(pipe.closure)
            ):
                merged.append(pipe)
                position += 1
            else:
                break
        return merged, position

    # ------------------------------------------------------------------
    # adjacency / incident pipes
    # ------------------------------------------------------------------
    def _translate_pipe(self, pipe, position):
        if isinstance(pipe, p.Adjacent):
            self._translate_adjacent(pipe)
        elif isinstance(pipe, p.EdgeVertex):
            self._translate_edge_vertex(pipe)
        elif isinstance(pipe, p.IdGetter):
            self._translate_id()
        elif isinstance(pipe, p.LabelGetter):
            self._translate_label()
        elif isinstance(pipe, p.PropertyGetter):
            self._translate_property(pipe)
        elif isinstance(pipe, (p.HasPipe, p.HasNotPipe, p.IntervalPipe)):
            self._translate_attribute_filter(pipe)
        elif isinstance(pipe, p.FilterClosurePipe):
            self._translate_attribute_filter(pipe)
        elif isinstance(pipe, p.DedupPipe):
            self._translate_dedup()
        elif isinstance(pipe, p.CountPipe):
            self._translate_count()
        elif isinstance(pipe, p.RangePipe):
            self._translate_range(pipe)
        elif isinstance(pipe, p.OrderPipe):
            self._translate_order(pipe)
        elif isinstance(pipe, p.PathPipe):
            self._translate_path()
        elif isinstance(pipe, (p.SimplePathPipe, p.CyclicPathPipe)):
            self._translate_simple_path(pipe)
        elif isinstance(pipe, p.BackPipe):
            self._translate_back(pipe)
        elif isinstance(pipe, p.SelectPipe):
            self._translate_select(pipe)
        elif isinstance(pipe, p.AsPipe):
            self.marks[pipe.name] = self.path_len - 1
        elif isinstance(pipe, p.AggregatePipe):
            self._translate_aggregate(pipe)
        elif isinstance(pipe, p.StorePipe):
            self._translate_aggregate(pipe)
        elif isinstance(pipe, (p.ExceptPipe, p.RetainPipe)):
            self._translate_except_retain(pipe)
        elif isinstance(pipe, (p.AndPipe, p.OrPipe)):
            self._translate_and_or(pipe)
        elif isinstance(pipe, p.IfThenElsePipe):
            self._translate_if_then_else(pipe)
        elif isinstance(
            pipe,
            (p.TablePipe, p.GroupCountPipe, p.SideEffectClosurePipe,
             p.IteratePipe, p.CapPipe),
        ):
            pass  # side effects are identity functions (paper §4.4)
        else:
            raise UnsupportedPipeError(f"cannot translate pipe {pipe!r}")

    def _translate_adjacent(self, pipe):
        if self.elem_type is not VERTEX:
            raise UnsupportedPipeError(
                f"{pipe.direction} requires vertices, found {self.elem_type}"
            )
        tin = self.current
        if pipe.direction == "both":
            out_cte = self._adjacent_direction(tin, "out", pipe.labels)
            in_cte = self._adjacent_direction(tin, "in", pipe.labels)
            select_list = "val, path" if self.track_path else "val"
            self._new_cte(
                f"SELECT {select_list} FROM {out_cte} UNION ALL "
                f"SELECT {select_list} FROM {in_cte}",
                "both: union of out/in branches",
            )
        else:
            self._adjacent_direction(tin, pipe.direction, pipe.labels)
        self._extend(VERTEX)

    def _adjacent_direction(self, tin, direction, labels):
        if self.single_traversal:
            return self._adjacent_via_ea(tin, direction, labels)
        return self._adjacent_via_hash(tin, direction, labels)

    def _adjacent_via_ea(self, tin, direction, labels):
        """Single-step lookup through the redundant EA table (§3.5)."""
        ea = self.names["ea"]
        if direction == "out":
            source, target = "outv", "inv"
        else:
            source, target = "inv", "outv"
        label_cond = self._label_condition("p.lbl", labels)
        path = self._path_select(f"p.{target}") if self.track_path else ""
        sql = (
            f"SELECT p.{target} AS val{path} FROM {tin} v, {ea} p "
            f"WHERE v.val = p.{source}{label_cond}"
        )
        self.trace.ea_shortcut = True
        return self._new_cte(sql, f"adjacent({direction}) via EA shortcut (§3.5)")

    def _adjacent_via_hash(self, tin, direction, labels):
        """Multi-step traversal through OPA/OSA (or IPA/ISA) — the paper's
        out-pipe template."""
        primary = self.names["opa" if direction == "out" else "ipa"]
        secondary = self.names["osa" if direction == "out" else "isa"]
        unnest = self.schema.unnest_triples_sql("p", direction)
        label_cond = self._label_condition("t.lbl", labels)
        path_a = ", v.path AS path" if self.track_path else ""
        sql_a = (
            f"SELECT t.val AS val{path_a} FROM {tin} v, {primary} p, {unnest} "
            f"WHERE v.val = p.vid AND t.val IS NOT NULL{label_cond}"
        )
        primary_name = "OPA" if direction == "out" else "IPA"
        stage_a = self._new_cte(
            sql_a, f"adjacent({direction}) via {primary_name} unnest (Table 8)"
        )
        resolved = "COALESCE(s.val, p.val)"
        path_b = (
            f", (p.path || {resolved}) AS path" if self.track_path else ""
        )
        sql_b = (
            f"SELECT {resolved} AS val{path_b} FROM {stage_a} p "
            f"LEFT OUTER JOIN {secondary} s ON p.val = s.valid"
        )
        secondary_name = "OSA" if direction == "out" else "ISA"
        return self._new_cte(
            sql_b, f"adjacent({direction}) spill resolution via {secondary_name}"
        )

    def _translate_incident(self, position):
        """outE/inE/bothE with VertexQuery merging of edge filters."""
        pipe = self.pipes[position]
        if self.elem_type is not VERTEX:
            raise UnsupportedPipeError("outE/inE/bothE require vertices")
        merged, next_position = self._collect_mergeable(position + 1)
        extra = "".join(
            " AND " + self._filter_condition("p", EDGE, filt) for filt in merged
        )
        ea = self.names["ea"]
        tin = self.current
        label_cond = self._label_condition("p.lbl", pipe.labels)
        path = self._path_select("p.eid") if self.track_path else ""

        if merged:
            self.trace.vertexquery_merges += len(merged)
            suffix = f" + VertexQuery merge of {len(merged)} filter(s)"
        else:
            suffix = ""

        def one(source):
            return (
                f"SELECT p.eid AS val{path} FROM {tin} v, {ea} p "
                f"WHERE v.val = p.{source}{label_cond}{extra}"
            )

        if pipe.direction == "out":
            self._new_cte(one("outv"), f"outE via EA{suffix}")
        elif pipe.direction == "in":
            self._new_cte(one("inv"), f"inE via EA{suffix}")
        else:
            # both branches read from the same input CTE (tin is captured
            # before either branch CTE is registered)
            first = self._new_cte(one("outv"), f"bothE out-branch{suffix}")
            second = self._new_cte(one("inv"), f"bothE in-branch{suffix}")
            select_list = "val, path" if self.track_path else "val"
            self._new_cte(
                f"SELECT {select_list} FROM {first} UNION ALL "
                f"SELECT {select_list} FROM {second}",
                "bothE: union of branches",
            )
        self._extend(EDGE)
        return next_position

    def _translate_edge_vertex(self, pipe):
        if self.elem_type is not EDGE:
            raise UnsupportedPipeError("outV/inV/bothV require edges")
        ea = self.names["ea"]
        tin = self.current
        if pipe.direction == "both":
            path = self._path_select("t.val") if self.track_path else ""
            sql = (
                f"SELECT t.val AS val{path} FROM {tin} v, {ea} p, "
                f"TABLE(VALUES (p.outv), (p.inv)) AS t(val) "
                f"WHERE v.val = p.eid"
            )
        else:
            column = "outv" if pipe.direction == "out" else "inv"
            path = self._path_select(f"p.{column}") if self.track_path else ""
            sql = (
                f"SELECT p.{column} AS val{path} FROM {tin} v, {ea} p "
                f"WHERE v.val = p.eid"
            )
        self._new_cte(sql, f"{pipe.direction}V edge endpoint via EA")
        self._extend(VERTEX)

    # ------------------------------------------------------------------
    # value transforms
    # ------------------------------------------------------------------
    def _translate_id(self):
        # element ids are already the val column; re-tag the element type
        path = self._path_select("v.val") if self.track_path else ""
        self._new_cte(
            f"SELECT v.val AS val{path} FROM {self.current} v", "id getter"
        )
        self._extend(VALUE)

    def _translate_label(self):
        if self.elem_type is VERTEX:
            # vertices have no element label; like the interpreter, fall
            # back to a 'label' attribute (rdfs:label in the DBpedia graph)
            self._translate_property(p.PropertyGetter("label"))
            return
        if self.elem_type is not EDGE:
            raise UnsupportedPipeError("label requires edges")
        ea = self.names["ea"]
        path = self._path_select("p.lbl") if self.track_path else ""
        sql = (
            f"SELECT p.lbl AS val{path} FROM {self.current} v, {ea} p "
            f"WHERE v.val = p.eid"
        )
        self._new_cte(sql, "label getter via EA")
        self._extend(VALUE)

    def _translate_property(self, pipe):
        table, id_column = self._attribute_table()
        value = f"JSON_VAL(p.attr, {sql_literal(pipe.key)})"
        path = self._path_select(value) if self.track_path else ""
        sql = (
            f"SELECT {value} AS val{path} FROM {self.current} v, {table} p "
            f"WHERE v.val = p.{id_column} AND {value} IS NOT NULL"
        )
        attr_table = "VA" if self.elem_type is VERTEX else "EA"
        self._new_cte(sql, f"property({pipe.key}) via JSON_VAL on {attr_table}")
        self._extend(VALUE)

    def _attribute_table(self):
        if self.elem_type is VERTEX:
            return self.names["va"], "vid"
        if self.elem_type is EDGE:
            return self.names["ea"], "eid"
        raise UnsupportedPipeError(
            f"attribute access requires elements, found {self.elem_type}"
        )

    # ------------------------------------------------------------------
    # filters
    # ------------------------------------------------------------------
    def _translate_attribute_filter(self, pipe):
        select_list = "v.val AS val" + (", v.path AS path" if self.track_path else "")
        if self.elem_type is VALUE:
            condition = self._filter_condition(None, VALUE, pipe)
            sql = f"SELECT {select_list} FROM {self.current} v WHERE {condition}"
            self._new_cte(sql, "filter on value column")
            return
        if self._filter_touches_attributes(pipe):
            table, id_column = self._attribute_table()
            condition = self._filter_condition("p", self.elem_type, pipe)
            sql = (
                f"SELECT {select_list} FROM {self.current} v, {table} p "
                f"WHERE v.val = p.{id_column} AND {condition}"
            )
            template = "filter with attribute-table join"
        else:
            condition = self._filter_condition(None, self.elem_type, pipe)
            sql = f"SELECT {select_list} FROM {self.current} v WHERE {condition}"
            template = "filter on element id"
        self._new_cte(sql, template)

    def _filter_touches_attributes(self, pipe):
        """Does this filter need the VA/EA attribute table joined in?"""
        if isinstance(pipe, p.HasPipe):
            # id filters work on the val column directly; everything else
            # (attributes, and the edge label column) lives in VA/EA
            return pipe.key != "id"
        if isinstance(pipe, (p.HasNotPipe, p.IntervalPipe)):
            return True
        if isinstance(pipe, p.FilterClosurePipe):
            return any(
                isinstance(node, cl.PropRef) and node.name != "id"
                for node in _walk_closure(pipe.closure)
            )
        return True

    def _filter_condition(self, alias, elem_type, pipe, val_expr="v.val"):
        """SQL condition for a filter pipe.  ``alias`` is the attribute-table
        alias (``None`` when the filter works on the val column alone);
        ``val_expr`` is the SQL expression holding the current object (the
        id column when merging into a start CTE)."""
        if isinstance(pipe, p.HasPipe):
            if pipe.key == "id":
                target = val_expr
                if pipe.exists_only:
                    return f"{target} IS NOT NULL"
                return f"{target} {_sql_op(pipe.op)} {sql_literal(pipe.value)}"
            if pipe.key == "label" and elem_type is EDGE:
                target = f"{alias}.lbl"
                if pipe.exists_only:
                    return f"{target} IS NOT NULL"
                return f"{target} {_sql_op(pipe.op)} {sql_literal(pipe.value)}"
            return self._attribute_condition(
                alias, elem_type, pipe.key, "exists" if pipe.exists_only else pipe.op,
                pipe.value,
            )
        if isinstance(pipe, p.HasNotPipe):
            return f"JSON_VAL({alias}.attr, {sql_literal(pipe.key)}) IS NULL"
        if isinstance(pipe, p.IntervalPipe):
            value = f"JSON_VAL({alias}.attr, {sql_literal(pipe.key)})"
            return (
                f"({value} >= {sql_literal(pipe.low)} AND "
                f"{value} < {sql_literal(pipe.high)})"
            )
        if isinstance(pipe, p.FilterClosurePipe):
            return self._closure_to_sql(pipe.closure, alias, elem_type)
        raise UnsupportedPipeError(f"cannot build condition for {pipe!r}")

    def _attribute_condition(self, alias, elem_type, key, op, value):
        expr = f"JSON_VAL({alias}.attr, {sql_literal(key)})"
        if op == "exists":
            return f"{expr} IS NOT NULL"
        if op == "!=":
            # Gremlin != is satisfied by a missing attribute (null != x),
            # unlike SQL's null-filtering <>
            return f"({expr} <> {sql_literal(value)} OR {expr} IS NULL)"
        return f"{expr} {_sql_op(op)} {sql_literal(value)}"

    # ------------------------------------------------------------------
    # closure compilation
    # ------------------------------------------------------------------
    def _closure_to_sql(self, node, alias, elem_type):
        if isinstance(node, cl.BoolAnd):
            return (
                f"({self._closure_to_sql(node.left, alias, elem_type)} AND "
                f"{self._closure_to_sql(node.right, alias, elem_type)})"
            )
        if isinstance(node, cl.BoolOr):
            return (
                f"({self._closure_to_sql(node.left, alias, elem_type)} OR "
                f"{self._closure_to_sql(node.right, alias, elem_type)})"
            )
        if isinstance(node, cl.BoolNot):
            return f"NOT ({self._closure_to_sql(node.operand, alias, elem_type)})"
        if isinstance(node, cl.Compare):
            left = self._closure_value_sql(node.left, alias, elem_type)
            right = self._closure_value_sql(node.right, alias, elem_type)
            if isinstance(node.right, cl.Const) and node.right.value is None:
                return (
                    f"{left} IS NULL" if node.op == "==" else f"{left} IS NOT NULL"
                )
            if isinstance(node.left, cl.Const) and node.left.value is None:
                return (
                    f"{right} IS NULL" if node.op == "==" else f"{right} IS NOT NULL"
                )
            if node.op == "!=":
                # Groovy != is null-friendly: null != x is true
                return (
                    f"({left} <> {right} OR {left} IS NULL OR "
                    f"{right} IS NULL)"
                )
            return f"{left} {_sql_op(node.op)} {right}"
        if isinstance(node, cl.StringMethod):
            target = self._closure_value_sql(node.target, alias, elem_type)
            if not isinstance(node.argument, cl.Const):
                raise UnsupportedPipeError(
                    "string methods require a constant argument"
                )
            text = str(node.argument.value).replace("'", "''")
            if node.method == "contains":
                return f"{target} LIKE '%{text}%'"
            if node.method == "startsWith":
                return f"{target} LIKE '{text}%'"
            if node.method == "endsWith":
                return f"{target} LIKE '%{text}'"
        raise UnsupportedPipeError(f"cannot translate closure node {node!r}")

    def _closure_value_sql(self, node, alias, elem_type):
        if isinstance(node, cl.Const):
            return sql_literal(node.value)
        if isinstance(node, cl.ItRef):
            return "v.val"
        if isinstance(node, cl.PropRef):
            if node.name == "id":
                return "v.val"
            if node.name == "label" and elem_type is EDGE:
                return f"{alias}.lbl"
            if alias is None:
                raise UnsupportedPipeError(
                    "property reference requires an element context"
                )
            return f"JSON_VAL({alias}.attr, {sql_literal(node.name)})"
        if isinstance(node, cl.Arith):
            left = self._closure_value_sql(node.left, alias, elem_type)
            right = self._closure_value_sql(node.right, alias, elem_type)
            return f"({left} {node.op} {right})"
        raise UnsupportedPipeError(f"cannot translate closure value {node!r}")

    # ------------------------------------------------------------------
    # stream pipes
    # ------------------------------------------------------------------
    def _translate_dedup(self):
        if self.track_path:
            sql = (
                f"SELECT val, MIN(path) AS path FROM {self.current} "
                "GROUP BY val"
            )
        else:
            sql = f"SELECT DISTINCT val FROM {self.current}"
        self._new_cte(sql, "dedup")

    def _translate_count(self):
        if self.track_path:
            sql = (
                "SELECT COUNT(*) AS val, PATH_INIT(COUNT(*)) AS path "
                f"FROM {self.current}"
            )
        else:
            sql = f"SELECT COUNT(*) AS val FROM {self.current}"
        self._new_cte(sql, "count aggregate")
        self.elem_type = VALUE

    def _translate_range(self, pipe):
        select_list = "val, path" if self.track_path else "val"
        if pipe.high >= 0:
            limit = pipe.high - pipe.low + 1
            sql = (
                f"SELECT {select_list} FROM {self.current} "
                f"LIMIT {limit} OFFSET {pipe.low}"
            )
        else:
            sql = f"SELECT {select_list} FROM {self.current} OFFSET {pipe.low}"
        self._new_cte(sql, "range via LIMIT/OFFSET")

    def _translate_order(self, pipe):
        select_list = "val, path" if self.track_path else "val"
        direction = " DESC" if pipe.descending else ""
        sql = f"SELECT {select_list} FROM {self.current} ORDER BY val{direction}"
        self._new_cte(sql, "order")

    def _translate_path(self):
        if not self.track_path:
            raise UnsupportedPipeError("path pipe requires path tracking")
        sql = f"SELECT path AS val, path FROM {self.current}"
        self._new_cte(sql, "path projection")
        self.elem_type = PATH

    def _translate_simple_path(self, pipe):
        predicate = "= 1" if isinstance(pipe, p.SimplePathPipe) else "= 0"
        sql = (
            f"SELECT val, path FROM {self.current} "
            f"WHERE ISSIMPLEPATH(path) {predicate}"
        )
        kind = "simplePath" if isinstance(pipe, p.SimplePathPipe) else "cyclicPath"
        self._new_cte(sql, f"{kind} filter")

    def _translate_back(self, pipe):
        if isinstance(pipe.target, int):
            index = self.path_len - 1 - pipe.target
        else:
            if pipe.target not in self.marks:
                raise UnsupportedPipeError(
                    f"back target {pipe.target!r} was never marked with as()"
                )
            index = self.marks[pipe.target]
        if index < 0 or index >= self.path_len:
            raise UnsupportedPipeError("back target out of range")
        sql = (
            f"SELECT ELEMENT_AT(path, {index}) AS val, "
            f"PATH_PREFIX(path, {index}) AS path FROM {self.current}"
        )
        self._new_cte(sql, f"back to path[{index}]")
        self.elem_type = self.path_types[index]
        self.path_len = index + 1
        self.path_types = self.path_types[: index + 1]

    def _translate_select(self, pipe):
        """select('a','b') projects the marked path positions as a tuple."""
        parts = []
        for name in pipe.names:
            if name not in self.marks:
                parts.append("NULL")
            else:
                parts.append(f"ELEMENT_AT(path, {self.marks[name]})")
        value = f"MAKE_LIST({', '.join(parts)})"
        path = ", path" if self.track_path else ""
        sql = f"SELECT {value} AS val{path} FROM {self.current}"
        self._new_cte(sql, "select marked positions")
        self.elem_type = VALUE

    def _translate_aggregate(self, pipe):
        snapshot = f"agg_{pipe.name}_{self.counter}"
        self.counter += 1
        self.ctes.append((snapshot, f"SELECT val FROM {self.current}"))
        self.trace.cte_count += 1
        self.trace.record(f"{snapshot}: aggregate snapshot ({pipe.name})")
        self.aggregates[pipe.name] = snapshot

    def _translate_except_retain(self, pipe):
        select_list = "v.val AS val" + (
            ", v.path AS path" if self.track_path else ""
        )
        negated = "NOT " if isinstance(pipe, p.ExceptPipe) else ""
        if pipe.name is not None:
            source = self.aggregates.get(pipe.name)
            if source is None:
                raise UnsupportedPipeError(
                    f"except/retain target {pipe.name!r} was never aggregated"
                )
            condition = f"v.val {negated}IN (SELECT val FROM {source})"
        else:
            rendered = ", ".join(sql_literal(value) for value in pipe.values)
            condition = f"v.val {negated}IN ({rendered})"
        sql = f"SELECT {select_list} FROM {self.current} v WHERE {condition}"
        if isinstance(pipe, p.ExceptPipe):
            self._new_cte(sql, "except anti-join")
        else:
            self._new_cte(sql, "retain semi-join")

    def _translate_and_or(self, pipe):
        """Paper's and/or templates: run each branch with path tracking and
        keep inputs whose seed (path[0]) survives the branch."""
        branch_outputs = []
        for branch in pipe.branches:
            branch_outputs.append(self._translate_branch(branch))
        select_list = "v.val AS val" + (
            ", v.path AS path" if self.track_path else ""
        )
        if isinstance(pipe, p.AndPipe):
            conditions = " AND ".join(
                f"v.val IN (SELECT ELEMENT_AT(path, 0) FROM {out})"
                for out in branch_outputs
            )
        else:
            union = " UNION ".join(
                f"SELECT ELEMENT_AT(path, 0) AS val FROM {out}"
                for out in branch_outputs
            )
            conditions = f"v.val IN ({union})"
        sql = f"SELECT {select_list} FROM {self.current} v WHERE {conditions}"
        kind = "and" if isinstance(pipe, p.AndPipe) else "or"
        self._new_cte(sql, f"{kind}() combinator over {len(branch_outputs)} branches")

    def _translate_branch(self, branch_pipes):
        """Translate an anonymous pipeline seeded from the current CTE."""
        saved = (
            self.elem_type, self.path_len, self.path_types[:], self.track_path,
            self.current, dict(self.marks),
        )
        seed_sql = f"SELECT val, PATH_INIT(val) AS path FROM {self.current}"
        self.track_path = True
        self._new_cte(seed_sql, "branch seed (path re-rooted)")
        self.path_len = 1
        self.path_types = [self.elem_type]
        i = 0
        pipes_backup = self.pipes
        self.pipes = list(branch_pipes)
        self.single_traversal = False
        while i < len(self.pipes):
            pipe = self.pipes[i]
            if isinstance(pipe, p.LoopPipe):
                self._translate_loop(i)
                i += 1
            elif isinstance(pipe, p.IncidentEdges):
                i = self._translate_incident(i)
            else:
                self._translate_pipe(pipe, i)
                i += 1
        output = self.current
        self.pipes = pipes_backup
        (self.elem_type, self.path_len, self.path_types, self.track_path,
         self.current, self.marks) = saved
        return output

    def _translate_copysplit(self, pipe):
        """copySplit(...).exhaustMerge → UNION ALL of branch outputs."""
        entry = (
            self.elem_type, self.path_len, self.path_types[:], self.current,
            dict(self.marks),
        )
        outputs = []
        exit_state = None
        for branch in pipe.branches:
            (self.elem_type, self.path_len, self.path_types, self.current,
             self.marks) = (
                entry[0], entry[1], entry[2][:], entry[3], dict(entry[4]),
            )
            pipes_backup = self.pipes
            self.pipes = list(branch)
            self.single_traversal = False
            i = 0
            while i < len(self.pipes):
                inner = self.pipes[i]
                if isinstance(inner, p.LoopPipe):
                    self._translate_loop(i)
                    i += 1
                elif isinstance(inner, p.IncidentEdges):
                    i = self._translate_incident(i)
                else:
                    self._translate_pipe(inner, i)
                    i += 1
            self.pipes = pipes_backup
            outputs.append(self.current)
            exit_state = (
                self.elem_type, self.path_len, self.path_types[:],
                dict(self.marks),
            )
        select_list = "val, path" if self.track_path else "val"
        union = " UNION ALL ".join(
            f"SELECT {select_list} FROM {out}" for out in outputs
        )
        self._new_cte(union, f"copySplit merge of {len(outputs)} branches")
        (self.elem_type, self.path_len, self.path_types, self.marks) = exit_state

    def _translate_if_then_else(self, pipe):
        """Value-closure ifThenElse compiles to a CASE expression (the
        paper's CTE-union form is only needed for pipeline branches)."""
        needs_attrs = any(
            isinstance(node, cl.PropRef) and node.name != "id"
            for closure in (pipe.condition, pipe.then_closure, pipe.else_closure)
            for node in _walk_closure(closure)
        )
        alias = None
        join = ""
        if needs_attrs:
            table, id_column = self._attribute_table()
            alias = "p"
            join = f", {table} p"
        condition = self._closure_to_sql(pipe.condition, alias, self.elem_type)
        then_sql = self._closure_value_sql(pipe.then_closure, alias, self.elem_type)
        else_sql = self._closure_value_sql(pipe.else_closure, alias, self.elem_type)
        case = f"CASE WHEN {condition} THEN {then_sql} ELSE {else_sql} END"
        where = f" WHERE v.val = p.{id_column}" if needs_attrs else ""
        path = self._path_select(case) if self.track_path else ""
        sql = f"SELECT {case} AS val{path} FROM {self.current} v{join}{where}"
        self._new_cte(sql, "ifThenElse as CASE expression")
        self._extend(VALUE)

    # ------------------------------------------------------------------
    # loops
    # ------------------------------------------------------------------
    def _translate_loop(self, position):
        pipe = self.pipes[position]
        if not cl.references_only_loops(pipe.condition):
            raise UnsupportedPipeError(
                "loop conditions may only reference it.loops"
            )
        bound = cl.max_loops_bound(pipe.condition)
        start = position - pipe.back_steps
        if start < 0:
            raise UnsupportedPipeError("loop rewinds past the pipeline start")
        segment = self.pipes[start:position]
        if bound is None:
            # only a statically bounded loop translates: it is unrolled
            if len(segment) != 1 or not isinstance(segment[0], p.Adjacent):
                raise UnsupportedPipeError(
                    "recursive loops support exactly one adjacency step"
                )
            raise UnsupportedPipeError(
                "loop condition has no static bound; use it.loops < N"
            )
        # unroll: the segment already ran once before reaching the loop
        self.trace.loop_unrolls += 1
        self.trace.record(
            f"loop unrolled {bound - 1} extra iteration(s) of "
            f"{len(segment)} pipe(s) (§4.3)"
        )
        for __ in range(bound - 1):
            for inner in segment:
                if isinstance(inner, p.LoopPipe):
                    raise UnsupportedPipeError("nested loops unsupported")
                self._translate_pipe(inner, position)


def _sql_op(op):
    return {"==": "=", "!=": "<>"}.get(op, op)


def _walk_closure(node):
    yield node
    for attr in ("left", "right", "operand", "target", "argument"):
        child = getattr(node, attr, None)
        if isinstance(child, cl.ClosureNode):
            yield from _walk_closure(child)


# ----------------------------------------------------------------------
# template parameterization (compiled-query cache front end)
# ----------------------------------------------------------------------
# Literal *data* values in a pipeline (vertex ids, has() values, interval
# bounds, closure constants ...) are extracted into a parameter vector so
# queries that differ only in those values share one translation.  Values
# that shape the generated SQL stay literal: labels (adjacency predicates),
# range() positions (LIMIT arithmetic), loop() conditions (unroll bounds),
# string-method arguments (embedded in LIKE patterns), None (IS NULL
# branches) and booleans.

_PARAM_TYPES = (int, float, str)


def _parameterizable(value):
    return isinstance(value, _PARAM_TYPES) and not isinstance(value, bool)


def parameterize_query(query):
    """Split a parsed GremlinQuery into a template and a parameter vector.

    Returns ``(template, values, key)`` where *template* is a copy of the
    query with extracted literals replaced by :class:`ParamLiteral`
    sentinels, *values* is the extracted literal vector (indexed by
    sentinel slot), and *key* is a deterministic cache key identifying the
    template shape.  The input query is never mutated.
    """
    values = []

    def slot(value):
        values.append(value)
        return ParamLiteral(len(values) - 1)

    pipes = [_parameterize_pipe(pipe, slot) for pipe in query.pipes]
    return p.GremlinQuery(pipes), values, repr(pipes)


def _parameterize_pipe(pipe, slot):
    if isinstance(pipe, (p.StartVertices, p.StartEdges)):
        changes = {}
        if pipe.ids:
            changes["ids"] = [slot(i) for i in pipe.ids]
        if pipe.key is not None and _parameterizable(pipe.value):
            changes["value"] = slot(pipe.value)
        return dataclasses.replace(pipe, **changes) if changes else pipe
    if isinstance(pipe, p.HasPipe):
        if not pipe.exists_only and _parameterizable(pipe.value):
            return dataclasses.replace(pipe, value=slot(pipe.value))
        return pipe
    if isinstance(pipe, p.IntervalPipe):
        changes = {}
        if _parameterizable(pipe.low):
            changes["low"] = slot(pipe.low)
        if _parameterizable(pipe.high):
            changes["high"] = slot(pipe.high)
        return dataclasses.replace(pipe, **changes) if changes else pipe
    if isinstance(pipe, (p.ExceptPipe, p.RetainPipe)):
        if pipe.values and all(_parameterizable(v) for v in pipe.values):
            return dataclasses.replace(
                pipe, values=tuple(slot(v) for v in pipe.values)
            )
        return pipe
    if isinstance(pipe, p.FilterClosurePipe):
        return dataclasses.replace(
            pipe, closure=_parameterize_bool(pipe.closure, slot)
        )
    if isinstance(pipe, p.IfThenElsePipe):
        return dataclasses.replace(
            pipe,
            condition=_parameterize_bool(pipe.condition, slot),
            then_closure=_parameterize_value(pipe.then_closure, slot),
            else_closure=_parameterize_value(pipe.else_closure, slot),
        )
    if isinstance(pipe, (p.AndPipe, p.OrPipe, p.CopySplitPipe)):
        return dataclasses.replace(
            pipe,
            branches=[
                [_parameterize_pipe(inner, slot) for inner in branch]
                for branch in pipe.branches
            ],
        )
    return pipe


def _parameterize_bool(node, slot):
    """Parameterize constants in a boolean-context closure."""
    if isinstance(node, cl.BoolAnd):
        return cl.BoolAnd(
            _parameterize_bool(node.left, slot),
            _parameterize_bool(node.right, slot),
        )
    if isinstance(node, cl.BoolOr):
        return cl.BoolOr(
            _parameterize_bool(node.left, slot),
            _parameterize_bool(node.right, slot),
        )
    if isinstance(node, cl.BoolNot):
        return cl.BoolNot(_parameterize_bool(node.operand, slot))
    if isinstance(node, cl.Compare):
        return cl.Compare(
            node.op,
            _parameterize_value(node.left, slot),
            _parameterize_value(node.right, slot),
        )
    # StringMethod arguments are embedded into LIKE patterns; leave literal
    return node


def _parameterize_value(node, slot):
    """Parameterize constants in a value-context closure."""
    if isinstance(node, cl.Const) and _parameterizable(node.value):
        return cl.Const(slot(node.value))
    if isinstance(node, cl.Arith):
        return cl.Arith(
            node.op,
            _parameterize_value(node.left, slot),
            _parameterize_value(node.right, slot),
        )
    return node


def strip_parameter_markers(sql):
    """Convert ``{?slot}`` markers in *sql* to ``?`` placeholders.

    Returns ``(clean_sql, recipe)`` where *recipe* lists the parameter-
    vector slot feeding each ``?`` in textual order.  The same slot may
    appear more than once (e.g. ``bothE`` renders a filter condition twice)
    and slots may appear out of extraction order, so the recipe — not the
    vector itself — defines the binding.  Single-quoted strings are skipped:
    non-parameterized string literals could contain marker-like text.
    """
    out = []
    recipe = []
    i = 0
    n = len(sql)
    while i < n:
        ch = sql[i]
        if ch == "'":
            j = i + 1
            while j < n:
                if sql[j] == "'":
                    if j + 1 < n and sql[j + 1] == "'":
                        j += 2
                        continue
                    break
                j += 1
            out.append(sql[i:j + 1])
            i = j + 1
            continue
        if ch == "{" and sql.startswith("{?", i):
            end = sql.index("}", i)
            recipe.append(int(sql[i + 2:end]))
            out.append("?")
            i = end + 1
            continue
        out.append(ch)
        i += 1
    return "".join(out), recipe


def bind_parameters(values, recipe):
    """Expand a parameter vector into positional SQL parameters."""
    return [values[slot] for slot in recipe]

"""Physical plan operators for the SQL subset SQLGraph's translator emits.

The operator set mirrors what the paper's Table 8 query templates need at
execution time: index/sequential scans over the adjacency tables (OPA/IPA
with OSA/ISA spill, paper §3.2) and attribute tables (VA/EA, §3.3), UNNEST
for exploding adjacency column triads, hash and index-nested-loop joins
for adjacency hops, plus the projection / filter / distinct / sort /
aggregate / set operators the Gremlin pipes compile into (§4).

Each operator exposes:

* ``columns`` — output schema as a list of ``(qualifier, name)`` pairs,
* ``est_rows`` — the planner's cardinality estimate,
* ``rows()`` — an iterator of output tuples (the row-compatibility shim),
* ``batches()`` — an iterator of :class:`~repro.relational.batch.
  ColumnBatch` blocks (the vectorized path; see ``docs/EXECUTION.md``),
* ``children_ops()`` / ``describe()`` — plan-tree introspection, used by
  EXPLAIN and by ``repro.obs.stats.instrument_plan`` for EXPLAIN ANALYZE.

Batch-native operators (``batch_native = True``) implement
``batches_impl()`` and keep their pre-vectorization row loop verbatim in
``rows_impl()``; the base class routes ``rows()``/``batches()`` through
whichever implementation the ``REPRO_VECTORIZED`` knob selects, inserting
the row↔batch shims at the boundary.  Row-native operators (sort, set
ops, generic nested-loop join) only implement ``rows_impl()`` and get
batches through the shim.  Either way both access styles always work, so
consumers never care which side of the migration an operator is on.

Streaming operators (scan, filter, project, unnest, union-all, limit) are
generators; blocking operators (hash join build side, sort, distinct,
aggregate, set ops) materialize what they must.  Instrumentation shadows
the operator's *native* method (``batches`` when vectorized,
``rows`` otherwise) with an instance attribute on the plan being
analyzed, so the uninstrumented path pays nothing and nothing is counted
twice.
"""

from __future__ import annotations

from collections import Counter

from repro.relational import batch as batch_mod
from repro.relational.batch import (
    BatchRow,
    ColumnBatch,
    MaterializedRelation,
    batches_from_rows,
)
from repro.relational.errors import BindError
from repro.relational.index import total_order_key


def make_resolver(columns):
    """Build a ``(qualifier, name) -> position`` resolver over *columns*.

    Qualified lookups must match exactly; unqualified lookups must be
    unambiguous across the schema.
    """
    qualified = {}
    unqualified = {}
    for position, (qualifier, name) in enumerate(columns):
        if qualifier is not None:
            qualified[(qualifier, name)] = position
        unqualified.setdefault(name, []).append(position)

    def resolver(qualifier, name):
        if qualifier is not None:
            key = (qualifier, name)
            if key in qualified:
                return qualified[key]
            raise BindError(f"unknown column {qualifier}.{name}")
        positions = unqualified.get(name)
        if not positions:
            raise BindError(f"unknown column {name}")
        if len(positions) > 1:
            raise BindError(f"ambiguous column {name}")
        return positions[0]

    return resolver


def make_hashable(value):
    """Convert a value to a hashable form for set/group operations."""
    if isinstance(value, (list, tuple)):
        return tuple(make_hashable(item) for item in value)
    if isinstance(value, dict):
        return tuple(sorted((key, make_hashable(val)) for key, val in value.items()))
    if isinstance(value, set):
        return frozenset(make_hashable(item) for item in value)
    return value


def hashable_row(row):
    return tuple(make_hashable(value) for value in row)


def _eval_row_fns(columns, positions, fns):
    """Evaluate row closures over batch *positions* via a reused
    :class:`BatchRow` view; returns one value list per closure.  This is
    the fallback batch kernel for operators constructed without
    planner-supplied vectorized callables (tests build operators by hand
    with plain row lambdas)."""
    row = BatchRow(columns)
    lists = [[] for __ in fns]
    for i in positions:
        row.i = i
        for out, fn in zip(lists, fns):
            out.append(fn(row))
    return lists


def _rid_batches(table, rids, width, batch_size=None):
    """Fetch *rids* in chunks via ``table.get_many`` and yield the live
    rows as dense blocks.  Index scans and probes go through this so the
    buffer pool is touched once per page per chunk, not once per RID."""
    if batch_size is None:
        batch_size = batch_mod.BATCH_SIZE
    chunk = []
    for rid in rids:
        chunk.append(rid)
        if len(chunk) >= batch_size:
            live = [row for row in table.get_many(chunk) if row is not None]
            if live:
                yield ColumnBatch.from_rows(live, width)
            chunk = []
    if chunk:
        live = [row for row in table.get_many(chunk) if row is not None]
        if live:
            yield ColumnBatch.from_rows(live, width)


def _filter_block(block, predicate_batch, predicate):
    """Narrow *block* to the positions satisfying the predicate.

    Prefers the vectorized *predicate_batch* kernel; otherwise drives the
    row closure through a :class:`BatchRow`.  Returns the input block
    unchanged when nothing is filtered (zero-copy), ``None`` when nothing
    survives, or a new block sharing the column lists with a narrowed
    selection vector.
    """
    positions = block.positions()
    if predicate_batch is not None:
        values = predicate_batch(block.columns, positions)
        sel = [i for i, value in zip(positions, values) if value]
    else:
        row = BatchRow(block.columns)
        sel = []
        append = sel.append
        for i in positions:
            row.i = i
            if predicate(row):
                append(i)
    if len(sel) == block.selected_count():
        return block
    if not sel:
        return None
    return ColumnBatch(block.columns, block.length, sel)


class Operator:
    """Base of all physical operators.

    Batch contract: ``batches()`` yields :class:`ColumnBatch` blocks whose
    selection vectors must be honored by consumers; ``rows()`` yields the
    same rows as tuples, in the same order.  The two views are always
    consistent — each subclass implements one natively and inherits the
    shim for the other.
    """

    columns = ()
    est_rows = 0
    #: True when the class implements ``batches_impl`` natively; the
    #: ``REPRO_VECTORIZED`` knob then selects which implementation runs.
    batch_native = False

    def uses_batches(self):
        """Is the vectorized implementation the native path right now?"""
        return self.batch_native and batch_mod.enabled()

    def rows(self):
        """Yield output rows as tuples (row-compatibility shim)."""
        if self.uses_batches():
            # route through self.batches so EXPLAIN ANALYZE's instance-
            # attribute instrumentation sees the traffic exactly once
            for block in self.batches():
                yield from block.iter_rows()
        else:
            yield from self.rows_impl()

    def batches(self):
        """Yield output :class:`ColumnBatch` blocks."""
        if self.uses_batches():
            yield from self.batches_impl()
        else:
            yield from batches_from_rows(self.rows(), len(self.columns))

    def rows_impl(self):
        """Row-at-a-time implementation (the pre-vectorization loop)."""
        raise NotImplementedError

    def batches_impl(self):
        """Batch-at-a-time implementation (batch-native operators only)."""
        raise NotImplementedError

    def children_ops(self):
        """Child operators, for plan inspection / EXPLAIN."""
        kids = []
        for attr in ("child", "left", "right", "outer"):
            value = getattr(self, attr, None)
            if isinstance(value, Operator):
                kids.append(value)
        for value in getattr(self, "children", ()) or ():
            if isinstance(value, Operator):
                kids.append(value)
        return kids

    def describe(self):
        """One-line summary used by EXPLAIN."""
        return type(self).__name__

    # ------------------------------------------------------------------
    # cost interface (consumed by the statistics-driven planner)
    # ------------------------------------------------------------------
    #: ANALYZE-derived ``{fingerprint: ndv}`` the planner attaches to base
    #: accesses; ``distinct_values`` consults it before asking children
    stats_ndv = None

    def records_output(self):
        """Estimated output row count (the planner's ``est_rows``)."""
        return self.est_rows

    def blocks_accessed(self):
        """Estimated page fetches to produce the full output once."""
        return sum(child.blocks_accessed() for child in self.children_ops())

    def distinct_values(self, fingerprint):
        """Estimated distinct values of the expression *fingerprint* in the
        output, or ``None`` when unknown.

        Pipeline operators pass the question through to whichever child
        carries the column, capped by their own output cardinality — a
        filter can only shrink the value set.
        """
        local = self.stats_ndv
        if local is not None and fingerprint in local:
            return min(local[fingerprint], max(self.records_output(), 1))
        answers = [
            child.distinct_values(fingerprint)
            for child in self.children_ops()
        ]
        answers = [answer for answer in answers if answer is not None]
        if not answers:
            return None
        return min(min(answers), max(self.records_output(), 1))


def explain_plan(plan, indent=0):
    """Render an operator tree as an indented text plan."""
    lines = [f"{'  ' * indent}{plan.describe()}  (est_rows={plan.est_rows})"]
    for child in plan.children_ops():
        lines.extend(explain_plan(child, indent + 1).splitlines())
    return "\n".join(lines)


class SeqScan(Operator):
    """Full scan of a heap table, optionally with a pushed-down predicate.

    Batch contract: emits the table's pages as dense blocks via
    :meth:`HeapTable.scan_batches`; a pushed predicate narrows each block
    to a selection vector in place (column lists are never copied).
    """

    batch_native = True

    def __init__(self, table, qualifier, predicate=None, est_rows=None,
                 predicate_batch=None):
        self.table = table
        self.qualifier = qualifier
        self.predicate = predicate
        self.predicate_batch = predicate_batch
        self.columns = [(qualifier, name) for name in table.schema.column_names]
        self.est_rows = est_rows if est_rows is not None else table.live_rows

    def describe(self):
        suffix = " filtered" if self.predicate is not None else ""
        return f"SeqScan({self.table.name} as {self.qualifier}){suffix}"

    def blocks_accessed(self):
        return self.table.page_count

    def rows_impl(self):
        predicate = self.predicate
        if predicate is None:
            yield from self.table.scan_rows()
            return
        for row in self.table.scan_rows():
            if predicate(row):
                yield row

    def batches_impl(self):
        predicate = self.predicate
        if predicate is None:
            yield from self.table.scan_batches()
            return
        predicate_batch = self.predicate_batch
        for block in self.table.scan_batches():
            filtered = _filter_block(block, predicate_batch, predicate)
            if filtered is not None:
                yield filtered


class IndexEqScan(Operator):
    """Equality lookup through a hash or sorted index with constant keys.

    Batch contract: fetched rows are packed into dense blocks in probe
    order; a residual predicate narrows each block's selection vector.
    """

    batch_native = True

    def __init__(self, table, qualifier, index, keys, predicate=None, est_rows=1,
                 predicate_batch=None):
        self.table = table
        self.qualifier = qualifier
        self.index = index
        self.keys = keys  # list of constant keys to probe
        self.predicate = predicate
        self.predicate_batch = predicate_batch
        self.columns = [(qualifier, name) for name in table.schema.column_names]
        self.est_rows = est_rows

    def describe(self):
        return (
            f"IndexEqScan({self.table.name} as {self.qualifier} "
            f"via {self.index.name})"
        )

    def blocks_accessed(self):
        # each probed row may land on its own page (worst case)
        return max(self.est_rows, 1)

    def _fetch(self):
        table = self.table
        for key in self.keys:
            for rid in self.index.lookup(key):
                row = table.get(rid)
                if row is not None:
                    yield row

    def rows_impl(self):
        predicate = self.predicate
        for row in self._fetch():
            if predicate is None or predicate(row):
                yield row

    def batches_impl(self):
        predicate = self.predicate
        predicate_batch = self.predicate_batch
        rids = (
            rid for key in self.keys for rid in self.index.lookup(key)
        )
        for block in _rid_batches(self.table, rids, len(self.columns)):
            if predicate is None:
                yield block
                continue
            filtered = _filter_block(block, predicate_batch, predicate)
            if filtered is not None:
                yield filtered


class IndexRangeScan(Operator):
    """Range scan through a sorted index.

    Batch contract: same as :class:`IndexEqScan` — dense blocks in index
    order, residual predicate applied per block.
    """

    batch_native = True

    def __init__(self, table, qualifier, index, low, high, low_inclusive,
                 high_inclusive, predicate=None, est_rows=1,
                 predicate_batch=None):
        self.table = table
        self.qualifier = qualifier
        self.index = index
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.predicate = predicate
        self.predicate_batch = predicate_batch
        self.columns = [(qualifier, name) for name in table.schema.column_names]
        self.est_rows = est_rows

    def describe(self):
        return (
            f"IndexRangeScan({self.table.name} as {self.qualifier} "
            f"via {self.index.name})"
        )

    def blocks_accessed(self):
        return max(self.est_rows, 1)

    def _fetch(self):
        table = self.table
        for rid in self.index.range_scan(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        ):
            row = table.get(rid)
            if row is not None:
                yield row

    def rows_impl(self):
        predicate = self.predicate
        for row in self._fetch():
            if predicate is None or predicate(row):
                yield row

    def batches_impl(self):
        predicate = self.predicate
        predicate_batch = self.predicate_batch
        rids = self.index.range_scan(
            self.low, self.high, self.low_inclusive, self.high_inclusive
        )
        for block in _rid_batches(self.table, rids, len(self.columns)):
            if predicate is None:
                yield block
                continue
            filtered = _filter_block(block, predicate_batch, predicate)
            if filtered is not None:
                yield filtered


class MaterializedScan(Operator):
    """Scan over a materialized result (CTE bodies, VALUES, subqueries).

    *source* is either a plain list of row tuples or a
    :class:`MaterializedRelation` (which a vectorized CTE materialization
    stores as dense column batches, so re-scanning it never transposes).

    Batch contract: emits the stored blocks as-is (zero-copy for a
    columnar source); a predicate narrows selection vectors per block.
    """

    batch_native = True

    def __init__(self, source, columns, predicate=None, predicate_batch=None):
        self.source = source
        self.columns = list(columns)
        self.predicate = predicate
        self.predicate_batch = predicate_batch
        if isinstance(source, MaterializedRelation):
            self.est_rows = source.row_count()
        else:
            self.est_rows = len(source)

    def describe(self):
        return f"MaterializedScan({self.est_rows} rows)"

    def blocks_accessed(self):
        return 0  # already resident in memory

    def _source_rows(self):
        if isinstance(self.source, MaterializedRelation):
            return self.source.iter_rows()
        return iter(self.source)

    def rows_impl(self):
        if self.predicate is None:
            return self._source_rows()
        predicate = self.predicate
        return (row for row in self._source_rows() if predicate(row))

    def batches_impl(self):
        if isinstance(self.source, MaterializedRelation):
            blocks = self.source.iter_batches()
        else:
            blocks = batches_from_rows(iter(self.source), len(self.columns))
        predicate = self.predicate
        if predicate is None:
            yield from blocks
            return
        predicate_batch = self.predicate_batch
        for block in blocks:
            filtered = _filter_block(block, predicate_batch, predicate)
            if filtered is not None:
                yield filtered


class FilterOp(Operator):
    """Apply a predicate, keeping rows where it evaluates true.

    Batch contract: consumes child blocks and narrows each block's
    selection vector — column lists pass through untouched (zero-copy).
    The vectorized ``predicate_batch`` kernel evaluates the predicate for
    a whole block at once; without one, the row closure runs per position.
    """

    batch_native = True

    def __init__(self, child, predicate, est_rows=None, predicate_batch=None):
        self.child = child
        self.predicate = predicate
        self.predicate_batch = predicate_batch
        self.columns = child.columns
        self.est_rows = est_rows if est_rows is not None else max(
            1, child.est_rows // 3
        )

    def rows_impl(self):
        predicate = self.predicate
        for row in self.child.rows():
            if predicate(row):
                yield row

    def batches_impl(self):
        predicate = self.predicate
        predicate_batch = self.predicate_batch
        for block in self.child.batches():
            filtered = _filter_block(block, predicate_batch, predicate)
            if filtered is not None:
                yield filtered


class ProjectOp(Operator):
    """Compute the SELECT list.

    Batch contract: consumes child blocks and emits dense blocks of
    evaluated expressions; with vectorized ``batch_fns`` each output
    column is produced by one kernel call per block (a bare column
    reference aliases the input column list — zero-copy), otherwise the
    row closures run per position.
    """

    batch_native = True

    def __init__(self, child, value_fns, columns, batch_fns=None):
        self.child = child
        self.value_fns = value_fns
        self.batch_fns = batch_fns
        self.columns = list(columns)
        self.est_rows = child.est_rows

    def rows_impl(self):
        fns = self.value_fns
        for row in self.child.rows():
            yield tuple(fn(row) for fn in fns)

    def batches_impl(self):
        batch_fns = self.batch_fns
        for block in self.child.batches():
            positions = block.positions()
            count = len(positions)
            if count == 0:
                continue
            if batch_fns is not None:
                out_columns = [fn(block.columns, positions) for fn in batch_fns]
            else:
                out_columns = _eval_row_fns(
                    block.columns, positions, self.value_fns
                )
            yield ColumnBatch(out_columns, count)


class HashJoinOp(Operator):
    """Equi hash join; builds on the right child.

    ``kind`` is ``'inner'`` or ``'left'`` (left outer: unmatched left rows are
    padded with NULLs).  ``residual`` is an optional extra predicate over the
    combined row.

    Batch contract: build and probe both consume child blocks; join keys
    come from vectorized kernels (``*_key_batch_fns``) or the
    :class:`BatchRow` fallback.  Output blocks gather probe-side columns
    by position and transpose the matching build rows.  A residual is a
    combined-row closure, so that case keeps the row loop and re-batches
    its output.
    """

    batch_native = True

    def __init__(self, left, right, left_key_fns, right_key_fns, kind="inner",
                 residual=None, est_rows=None, left_key_batch_fns=None,
                 right_key_batch_fns=None):
        self.left = left
        self.right = right
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.left_key_batch_fns = left_key_batch_fns
        self.right_key_batch_fns = right_key_batch_fns
        self.kind = kind
        self.residual = residual
        self.columns = list(left.columns) + list(right.columns)
        if est_rows is None:
            est_rows = max(left.est_rows, right.est_rows)
        self.est_rows = est_rows

    def describe(self):
        return f"HashJoin[{self.kind}]"

    def rows_impl(self):
        build = {}
        right_keys = self.right_key_fns
        for row in self.right.rows():
            key = tuple(make_hashable(fn(row)) for fn in right_keys)
            if any(part is None for part in key):
                continue  # NULL never joins
            build.setdefault(key, []).append(row)
        left_keys = self.left_key_fns
        residual = self.residual
        pad = (None,) * len(self.right.columns)
        left_outer = self.kind == "left"
        for left_row in self.left.rows():
            key = tuple(make_hashable(fn(left_row)) for fn in left_keys)
            matches = build.get(key) if not any(part is None for part in key) else None
            matched = False
            if matches:
                for right_row in matches:
                    combined = left_row + right_row
                    if residual is None or residual(combined):
                        matched = True
                        yield combined
            if left_outer and not matched:
                yield left_row + pad

    def _key_lists(self, block, positions, batch_fns, row_fns):
        if batch_fns is not None:
            return [fn(block.columns, positions) for fn in batch_fns]
        return _eval_row_fns(block.columns, positions, row_fns)

    def batches_impl(self):
        if self.residual is not None:
            # residuals are combined-row closures; keep the row loop and
            # re-batch its output
            yield from batches_from_rows(self.rows_impl(), len(self.columns))
            return
        # build side: key each right row, normalizing via make_hashable
        # only when the raw key is unhashable (same trick as DistinctOp)
        build = {}
        for block in self.right.batches():
            positions = block.positions()
            if len(positions) == 0:
                continue
            key_lists = self._key_lists(
                block, positions, self.right_key_batch_fns,
                self.right_key_fns,
            )
            rows_iter = block.iter_rows()
            if len(key_lists) == 1:
                for key, row in zip(key_lists[0], rows_iter):
                    if key is None:
                        continue  # NULL never joins
                    try:
                        bucket = build.get(key)
                    except TypeError:
                        key = make_hashable(key)
                        bucket = build.get(key)
                    if bucket is None:
                        build[key] = [row]
                    else:
                        bucket.append(row)
            else:
                for key, row in zip(zip(*key_lists), rows_iter):
                    if any(part is None for part in key):
                        continue
                    try:
                        bucket = build.get(key)
                    except TypeError:
                        key = tuple(make_hashable(part) for part in key)
                        bucket = build.get(key)
                    if bucket is None:
                        build[key] = [row]
                    else:
                        bucket.append(row)
        pad = (None,) * len(self.right.columns)
        left_outer = self.kind == "left"
        lookup = build.get
        for block in self.left.batches():
            positions = block.positions()
            if len(positions) == 0:
                continue
            key_lists = self._key_lists(
                block, positions, self.left_key_batch_fns,
                self.left_key_fns,
            )
            single = len(key_lists) == 1
            probe_keys = (
                key_lists[0] if single else zip(*key_lists)
            )
            out_positions = []  # left position per output row
            append_pos = out_positions.append
            right_rows = []
            append_row = right_rows.append
            for i, key in zip(positions, probe_keys):
                if single:
                    null_key = key is None
                else:
                    null_key = any(part is None for part in key)
                matches = None
                if not null_key:
                    try:
                        matches = lookup(key)
                    except TypeError:
                        if single:
                            matches = lookup(make_hashable(key))
                        else:
                            matches = lookup(
                                tuple(make_hashable(part) for part in key)
                            )
                if matches:
                    for right_row in matches:
                        append_pos(i)
                        append_row(right_row)
                elif left_outer:
                    append_pos(i)
                    append_row(pad)
            if not right_rows:
                continue
            left_columns = [
                [column[i] for i in out_positions]
                for column in block.columns
            ]
            right_columns = [list(col) for col in zip(*right_rows)]
            yield ColumnBatch(
                left_columns + right_columns, len(right_rows)
            )


class NestedLoopJoinOp(Operator):
    """Fallback join for non-equi conditions; right side is materialized.

    Batch contract: row-native — the arbitrary join condition is a row
    closure; batches come from the base-class shim.
    """

    def __init__(self, left, right, condition=None, kind="inner", est_rows=None):
        self.left = left
        self.right = right
        self.condition = condition
        self.kind = kind
        self.columns = list(left.columns) + list(right.columns)
        if est_rows is None:
            est_rows = max(1, left.est_rows * max(right.est_rows, 1))
        self.est_rows = est_rows

    def rows_impl(self):
        right_rows = list(self.right.rows())
        condition = self.condition
        pad = (None,) * len(self.right.columns)
        left_outer = self.kind == "left"
        for left_row in self.left.rows():
            matched = False
            for right_row in right_rows:
                combined = left_row + right_row
                if condition is None or condition(combined):
                    matched = True
                    yield combined
            if left_outer and not matched:
                yield left_row + pad


class IndexNLJoinOp(Operator):
    """Index nested-loop join: probe an index of the inner base table with a
    key computed from each outer row.

    Batch contract: consumes outer blocks, computes probe keys per block
    (vectorized via ``outer_key_batch_fns`` when the planner supplies
    them), probes the index per key, and emits one block per input block
    — outer columns gathered by position, inner rows transposed.  A
    residual predicate forces the row implementation through the shim
    (residuals are row-shaped combined-tuple closures).
    """

    batch_native = True

    def __init__(self, outer, table, qualifier, index, outer_key_fns,
                 residual=None, kind="inner", est_rows=None,
                 outer_key_batch_fns=None):
        self.outer = outer
        self.table = table
        self.qualifier = qualifier
        self.index = index
        self.outer_key_fns = outer_key_fns
        self.outer_key_batch_fns = outer_key_batch_fns
        self.residual = residual
        self.kind = kind
        inner_columns = [(qualifier, name) for name in table.schema.column_names]
        self.columns = list(outer.columns) + inner_columns
        self._inner_width = len(inner_columns)
        self.est_rows = est_rows if est_rows is not None else outer.est_rows

    def describe(self):
        return (
            f"IndexNLJoin[{self.kind}]({self.table.name} as {self.qualifier} "
            f"via {self.index.name})"
        )

    def blocks_accessed(self):
        # drive the outer once, then roughly one probe page per outer row
        return self.outer.blocks_accessed() + max(self.outer.records_output(), 1)

    def rows_impl(self):
        table = self.table
        index = self.index
        key_fns = self.outer_key_fns
        residual = self.residual
        pad = (None,) * self._inner_width
        left_outer = self.kind == "left"
        single = len(key_fns) == 1
        for outer_row in self.outer.rows():
            if single:
                key = key_fns[0](outer_row)
                null_key = key is None
            else:
                key = tuple(fn(outer_row) for fn in key_fns)
                null_key = any(part is None for part in key)
            matched = False
            if not null_key:
                for rid in index.lookup(key):
                    inner_row = table.get(rid)
                    if inner_row is None:
                        continue
                    combined = outer_row + inner_row
                    if residual is None or residual(combined):
                        matched = True
                        yield combined
            if left_outer and not matched:
                yield outer_row + pad

    def batches_impl(self):
        if self.residual is not None:
            # residuals are combined-row closures; keep the row loop and
            # re-batch its output
            yield from batches_from_rows(self.rows_impl(), len(self.columns))
            return
        table = self.table
        index = self.index
        key_batch_fns = self.outer_key_batch_fns
        key_fns = self.outer_key_fns
        pad = (None,) * self._inner_width
        left_outer = self.kind == "left"
        for block in self.outer.batches():
            positions = block.positions()
            if len(positions) == 0:
                continue
            if key_batch_fns is not None:
                key_lists = [
                    fn(block.columns, positions) for fn in key_batch_fns
                ]
            else:
                key_lists = _eval_row_fns(block.columns, positions, key_fns)
            # pass 1: probe the index for every live position, collecting
            # candidate RIDs so the heap fetch can be batched per page
            lookup = index.lookup
            flat_rids = []
            extend_rids = flat_rids.extend
            counts = []  # candidate RIDs per position
            append_count = counts.append
            if len(key_lists) == 1:
                for key in key_lists[0]:
                    if key is None:
                        append_count(0)
                        continue
                    rids = lookup(key)
                    extend_rids(rids)
                    append_count(len(rids))
            else:
                for key in zip(*key_lists):
                    if any(part is None for part in key):
                        append_count(0)
                        continue
                    rids = lookup(key)
                    extend_rids(rids)
                    append_count(len(rids))
            inner_fetched = table.get_many(flat_rids) if flat_rids else []
            # pass 2: stitch fetched rows back to their outer positions
            out_positions = []  # outer position per output row
            append_pos = out_positions.append
            inner_rows = []
            append_row = inner_rows.append
            cursor = 0
            for i, n in zip(positions, counts):
                if n:
                    matched = False
                    for j in range(cursor, cursor + n):
                        inner_row = inner_fetched[j]
                        if inner_row is None:
                            continue
                        matched = True
                        append_pos(i)
                        append_row(inner_row)
                    cursor += n
                    if matched:
                        continue
                if left_outer:
                    append_pos(i)
                    append_row(pad)
            if not inner_rows:
                continue
            outer_columns = [
                [column[i] for i in out_positions]
                for column in block.columns
            ]
            inner_columns = [list(col) for col in zip(*inner_rows)]
            yield ColumnBatch(
                outer_columns + inner_columns, len(inner_rows)
            )


class LateralUnnestOp(Operator):
    """Lateral ``TABLE(VALUES (e1), (e2), ...) AS alias(col,...)``.

    For each input row, evaluates every VALUES row (whose expressions may
    reference the input row) and emits input + values concatenated.  This
    is how OPA/IPA adjacency triads (``lbl0,eid0,val0`` …) explode into
    one row per stored edge (paper §3.2).

    Batch contract: consumes child blocks and emits one dense block per
    input block with ``len(rows_of_fns)`` output rows per live input row,
    interleaved in input-row-major order.  Child column values are
    repeated per VALUES row; each VALUES cell is computed by one kernel
    call per block (``rows_of_batch_fns``) and written with a strided
    slice assignment — the triad columns are gathered without building a
    single row tuple.
    """

    batch_native = True

    def __init__(self, child, rows_of_fns, columns, rows_of_batch_fns=None):
        self.child = child
        self.rows_of_fns = rows_of_fns
        self.rows_of_batch_fns = rows_of_batch_fns
        self.columns = list(child.columns) + list(columns)
        self.est_rows = child.est_rows * max(1, len(rows_of_fns))
        self._value_width = len(columns)

    def rows_impl(self):
        rows_of_fns = self.rows_of_fns
        for row in self.child.rows():
            for fns in rows_of_fns:
                yield row + tuple(fn(row) for fn in fns)

    def batches_impl(self):
        rows_of_fns = self.rows_of_fns
        rows_of_batch_fns = self.rows_of_batch_fns
        value_rows = len(rows_of_fns)
        value_width = self._value_width
        if value_rows == 0:
            return
        for block in self.child.batches():
            positions = block.positions()
            count = len(positions)
            if count == 0:
                continue
            dense = block.sel is None
            total = count * value_rows
            out_columns = []
            for column in block.columns:
                gathered = column if dense else [column[i] for i in positions]
                if value_rows == 1:
                    out_columns.append(
                        list(gathered) if gathered is column else gathered
                    )
                else:
                    out_columns.append(
                        [value for value in gathered for __ in range(value_rows)]
                    )
            value_columns = [[None] * total for __ in range(value_width)]
            for j in range(value_rows):
                if rows_of_batch_fns is not None:
                    value_lists = [
                        fn(block.columns, positions)
                        for fn in rows_of_batch_fns[j]
                    ]
                else:
                    value_lists = _eval_row_fns(
                        block.columns, positions, rows_of_fns[j]
                    )
                for out, values in zip(value_columns, value_lists):
                    out[j::value_rows] = values
            yield ColumnBatch(out_columns + value_columns, total)


class UnionAllOp(Operator):
    """Concatenate children, preserving duplicates and child order.

    Batch contract: passes each child's blocks through unchanged
    (zero-copy).
    """

    batch_native = True

    def __init__(self, children):
        self.children = children
        self.columns = list(children[0].columns)
        self.est_rows = sum(child.est_rows for child in children)

    def rows_impl(self):
        for child in self.children:
            yield from child.rows()

    def batches_impl(self):
        for child in self.children:
            yield from child.batches()


class SetOpOp(Operator):
    """UNION / INTERSECT / EXCEPT with SQL set (distinct) semantics.

    Batch contract: row-native — dedup works on hashable row tuples;
    batches come from the base-class shim.
    """

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right
        self.columns = list(left.columns)
        self.est_rows = max(left.est_rows, right.est_rows)

    def rows_impl(self):
        if self.op == "union":
            seen = set()
            for child in (self.left, self.right):
                for row in child.rows():
                    key = hashable_row(row)
                    if key not in seen:
                        seen.add(key)
                        yield row
            return
        right_set = {hashable_row(row) for row in self.right.rows()}
        emitted = set()
        if self.op == "intersect":
            for row in self.left.rows():
                key = hashable_row(row)
                if key in right_set and key not in emitted:
                    emitted.add(key)
                    yield row
        elif self.op == "except":
            for row in self.left.rows():
                key = hashable_row(row)
                if key not in right_set and key not in emitted:
                    emitted.add(key)
                    yield row
        else:
            raise BindError(f"unknown set operation {self.op!r}")


class DistinctOp(Operator):
    """Drop duplicate rows, keeping first occurrences in order.

    Batch contract: consumes child blocks and narrows each block's
    selection vector to first-seen rows — column lists pass through
    untouched (zero-copy); dedup keys are built straight from the column
    lists without materializing row tuples.
    """

    batch_native = True

    def __init__(self, child):
        self.child = child
        self.columns = child.columns
        self.est_rows = max(1, child.est_rows // 2)

    def rows_impl(self):
        seen = set()
        for row in self.child.rows():
            key = hashable_row(row)
            if key not in seen:
                seen.add(key)
                yield row

    def batches_impl(self):
        seen = set()
        add = seen.add
        for block in self.child.batches():
            columns = block.columns
            sel = []
            append = sel.append
            if not columns:
                for i in block.positions():
                    if () not in seen:
                        add(())
                        append(i)
            elif len(columns) == 1:
                # single-column DISTINCT keys on the value itself — no
                # per-row tuple allocation
                column = columns[0]
                for i in block.positions():
                    key = column[i]
                    try:
                        fresh = key not in seen
                    except TypeError:
                        key = make_hashable(key)
                        fresh = key not in seen
                    if fresh:
                        add(key)
                        append(i)
            else:
                for i in block.positions():
                    # fast path: most values are already hashable scalars;
                    # fall back to make_hashable only when the raw tuple
                    # is unhashable (lists/dicts/sets in a cell)
                    key = tuple([column[i] for column in columns])
                    try:
                        fresh = key not in seen
                    except TypeError:
                        key = tuple(
                            make_hashable(column[i]) for column in columns
                        )
                        fresh = key not in seen
                    if fresh:
                        add(key)
                        append(i)
            if not sel:
                continue
            if len(sel) == block.selected_count():
                yield block
            else:
                yield ColumnBatch(columns, block.length, sel)


class _AggState:
    """Accumulator for one aggregate call within one group."""

    __slots__ = ("kind", "distinct", "count", "total", "minimum", "maximum", "seen")

    def __init__(self, kind, distinct):
        self.kind = kind
        self.distinct = distinct
        self.count = 0
        self.total = None
        self.minimum = None
        self.maximum = None
        self.seen = set() if distinct else None

    def add(self, value):
        if self.kind == "count_star":
            self.count += 1
            return
        if value is None:
            return
        if self.distinct:
            key = make_hashable(value)
            if key in self.seen:
                return
            self.seen.add(key)
        self.count += 1
        if self.kind in ("sum", "avg"):
            self.total = value if self.total is None else self.total + value
        elif self.kind == "min":
            if self.minimum is None or total_order_key(value) < total_order_key(
                self.minimum
            ):
                self.minimum = value
        elif self.kind == "max":
            if self.maximum is None or total_order_key(self.maximum) < total_order_key(
                value
            ):
                self.maximum = value

    def result(self):
        if self.kind in ("count", "count_star"):
            return self.count
        if self.kind == "sum":
            return self.total
        if self.kind == "avg":
            return None if self.count == 0 else self.total / self.count
        if self.kind == "min":
            return self.minimum
        if self.kind == "max":
            return self.maximum
        raise BindError(f"unknown aggregate {self.kind!r}")


class AggregateOp(Operator):
    """Hash aggregation.

    Output row layout: group-by values first, then one column per aggregate
    spec.  ``agg_specs`` is a list of ``(kind, value_fn_or_None, distinct)``;
    ``kind == 'count_star'`` needs no value function.

    Batch contract: consumes child blocks, evaluating group keys and
    aggregate inputs per block (vectorized via ``group_batch_fns`` /
    ``agg_batch_fns`` — the latter aligned with ``agg_specs``, ``None``
    entries for ``count_star``); emits one dense block of result rows.
    Group order is first-occurrence, identical to the row path.
    """

    batch_native = True

    def __init__(self, child, group_fns, agg_specs, columns,
                 group_batch_fns=None, agg_batch_fns=None):
        self.child = child
        self.group_fns = group_fns
        self.agg_specs = agg_specs
        self.group_batch_fns = group_batch_fns
        self.agg_batch_fns = agg_batch_fns
        self.columns = list(columns)
        self.est_rows = max(1, child.est_rows // 10) if group_fns else 1

    def rows_impl(self):
        groups = {}
        group_fns = self.group_fns
        specs = self.agg_specs
        for row in self.child.rows():
            key = tuple(make_hashable(fn(row)) for fn in group_fns)
            state = groups.get(key)
            if state is None:
                group_values = tuple(fn(row) for fn in group_fns)
                state = (
                    group_values,
                    [_AggState(kind, distinct) for kind, __, distinct in specs],
                )
                groups[key] = state
            for (kind, value_fn, __), acc in zip(specs, state[1]):
                acc.add(None if value_fn is None else value_fn(row))
        if not groups and not group_fns:
            # global aggregate over empty input still yields one row
            accs = [_AggState(kind, distinct) for kind, __, distinct in specs]
            yield tuple(acc.result() for acc in accs)
            return
        for group_values, accs in groups.values():
            yield group_values + tuple(acc.result() for acc in accs)

    def batches_impl(self):
        group_fns = self.group_fns
        specs = self.agg_specs
        group_batch_fns = self.group_batch_fns
        agg_batch_fns = self.agg_batch_fns
        row_fns = [value_fn for __, value_fn, __d in specs]
        accs = [_ColumnAgg(kind, distinct) for kind, __, distinct in specs]
        #: hashable group key -> dense group id, in first-occurrence order
        group_ids = {}
        #: group id -> raw group values, kept only where the key had to be
        #: normalized (an unhashable cell) and so differs from them
        raw_values = {}
        for block in self.child.batches():
            positions = block.positions()
            count = len(positions)
            if count == 0:
                continue
            if not group_fns:
                group_ids[()] = 0
                gids = [0] * count
            else:
                if group_batch_fns is not None:
                    group_lists = [
                        fn(block.columns, positions) for fn in group_batch_fns
                    ]
                else:
                    group_lists = _eval_row_fns(
                        block.columns, positions, group_fns
                    )
                gids = _assign_group_ids(group_lists, group_ids, raw_values)
            if agg_batch_fns is not None:
                value_lists = [
                    None if fn is None else fn(block.columns, positions)
                    for fn in agg_batch_fns
                ]
            else:
                evaluated = iter(_eval_row_fns(
                    block.columns, positions,
                    [fn for fn in row_fns if fn is not None],
                ))
                value_lists = [
                    None if fn is None else next(evaluated) for fn in row_fns
                ]
            for acc, values in zip(accs, value_lists):
                acc.add_block(gids, values, len(group_ids))
        if not group_ids:
            if group_fns:
                return
            group_ids[()] = 0  # global aggregate over empty input: one row
        group_rows = [
            raw_values.get(gid, key) for gid, key in enumerate(group_ids)
        ]
        columns = [list(column) for column in zip(*group_rows)]
        columns.extend(acc.results(len(group_ids)) for acc in accs)
        yield ColumnBatch(columns, len(group_ids))


def _assign_group_ids(group_lists, group_ids, raw_values):
    """Map each row's group key to its dense group id, numbering new
    groups in first-occurrence order.  Keys are hashed raw; only a block
    holding an unhashable cell (lists/dicts from JSON) pays for
    :func:`make_hashable`, as in :class:`DistinctOp`."""
    try:
        setdefault = group_ids.setdefault
        return [
            setdefault(key, len(group_ids)) for key in zip(*group_lists)
        ]
    except TypeError:
        pass
    gids = []
    for raw in zip(*group_lists):
        key = tuple([make_hashable(value) for value in raw])
        gid = group_ids.get(key)
        if gid is None:
            gid = group_ids[key] = len(group_ids)
            raw_values[gid] = raw
        gids.append(gid)
    return gids


_NUMERIC_TYPES = frozenset((int, float, type(None)))


class _ColumnAgg:
    """One aggregate call over every group at once: dense per-group arrays
    indexed by group id, fed a block of ``(group id, value)`` columns at a
    time — one tight loop per block, chosen by kind outside the loop.
    Semantics (and float summation order) match :class:`_AggState`."""

    __slots__ = ("kind", "seen", "counts", "values", "numeric")

    def __init__(self, kind, distinct):
        if kind not in ("count_star", "count", "sum", "avg", "min", "max"):
            raise BindError(f"unknown aggregate {kind!r}")
        self.kind = kind
        #: DISTINCT: the ``(group id, value)`` pairs already counted
        self.seen = set() if distinct and kind != "count_star" else None
        self.counts = []  # per group: non-NULL inputs (rows for COUNT(*))
        self.values = []  # per group: running total / minimum / maximum
        self.numeric = True  # MIN/MAX saw only ints and floats so far

    def _grow(self, groups):
        missing = groups - len(self.counts)
        if missing:
            self.counts.extend([0] * missing)
            self.values.extend([None] * missing)

    def add_block(self, gids, values, groups):
        self._grow(groups)
        kind = self.kind
        counts = self.counts
        if kind == "count_star":
            for gid, rows in Counter(gids).items():
                counts[gid] += rows
            return
        if self.seen is not None:
            gids, values = self._unseen(gids, values)
        if kind in ("count", "avg"):
            for gid, value in zip(gids, values):
                if value is not None:
                    counts[gid] += 1
        if kind in ("sum", "avg"):
            totals = self.values
            for gid, value in zip(gids, values):
                if value is not None:
                    total = totals[gid]
                    totals[gid] = value if total is None else total + value
        elif kind != "count":
            self._extremes(gids, values, kind == "min")

    def _unseen(self, gids, values):
        seen = self.seen
        fresh_gids, fresh_values = [], []
        for gid, value in zip(gids, values):
            if value is None:
                continue
            pair = (gid, make_hashable(value))
            if pair not in seen:
                seen.add(pair)
                fresh_gids.append(gid)
                fresh_values.append(value)
        return fresh_gids, fresh_values

    def _extremes(self, gids, values, smallest):
        best = self.values
        if self.numeric and _NUMERIC_TYPES.issuperset(map(type, values)):
            # plain numbers order the same under total_order_key
            if smallest:
                for gid, value in zip(gids, values):
                    if value is not None:
                        current = best[gid]
                        if current is None or value < current:
                            best[gid] = value
            else:
                for gid, value in zip(gids, values):
                    if value is not None:
                        current = best[gid]
                        if current is None or current < value:
                            best[gid] = value
            return
        self.numeric = False
        for gid, value in zip(gids, values):
            if value is not None:
                current = best[gid]
                if current is None:
                    best[gid] = value
                elif smallest:
                    if total_order_key(value) < total_order_key(current):
                        best[gid] = value
                elif total_order_key(current) < total_order_key(value):
                    best[gid] = value

    def results(self, groups):
        """The aggregate's output column, one value per group id."""
        self._grow(groups)
        if self.kind in ("count", "count_star"):
            return self.counts
        if self.kind == "avg":
            return [
                None if count == 0 else total / count
                for total, count in zip(self.values, self.counts)
            ]
        return self.values


class SortOp(Operator):
    """Stable multi-key sort.

    Batch contract: row-native — sorting materializes row tuples anyway;
    batches come from the base-class shim.
    """

    def __init__(self, child, key_fns, descending_flags):
        self.child = child
        self.key_fns = key_fns
        self.descending_flags = descending_flags
        self.columns = child.columns
        self.est_rows = child.est_rows

    def rows_impl(self):
        materialized = list(self.child.rows())
        # stable multi-key sort: apply keys right-to-left
        for fn, descending in reversed(list(zip(self.key_fns, self.descending_flags))):
            materialized.sort(
                key=lambda row, _fn=fn: total_order_key(_fn(row)), reverse=descending
            )
        return iter(materialized)


class LimitOp(Operator):
    """LIMIT / OFFSET over the child's output order.

    Batch contract: consumes child blocks, slicing each block's selection
    vector to honor the offset and remaining limit (zero-copy — column
    lists pass through), and stops pulling from the child once the limit
    is exhausted.
    """

    batch_native = True

    def __init__(self, child, limit=None, offset=None):
        self.child = child
        self.limit = limit
        self.offset = offset or 0
        self.columns = child.columns
        self.est_rows = min(child.est_rows, limit) if limit is not None else (
            child.est_rows
        )

    def rows_impl(self):
        remaining = self.limit
        to_skip = self.offset
        for row in self.child.rows():
            if to_skip > 0:
                to_skip -= 1
                continue
            if remaining is not None:
                if remaining <= 0:
                    return
                remaining -= 1
            yield row

    def batches_impl(self):
        remaining = self.limit
        if remaining is not None and remaining <= 0:
            return
        to_skip = self.offset
        for block in self.child.batches():
            count = block.selected_count()
            if count == 0:
                continue
            if to_skip >= count:
                to_skip -= count
                continue
            start = to_skip
            to_skip = 0
            end = count
            if remaining is not None:
                end = min(end, start + remaining)
            if start == 0 and end == count:
                yield block
            else:
                positions = block.positions()
                sel = list(positions[start:end])
                yield ColumnBatch(block.columns, block.length, sel)
            if remaining is not None:
                remaining -= end - start
                if remaining <= 0:
                    return

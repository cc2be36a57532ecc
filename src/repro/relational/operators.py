"""Physical plan operators for the SQL subset SQLGraph's translator emits.

The operator set mirrors what the paper's Table 8 query templates need at
execution time: index/sequential scans over the adjacency tables (OPA/IPA
with OSA/ISA spill, paper §3.2) and attribute tables (VA/EA, §3.3), UNNEST
for exploding adjacency column triads, hash and index-nested-loop joins
for adjacency hops, plus the projection / filter / distinct / sort /
aggregate / union-all operators the Gremlin pipes compile into (§4);
``UNION`` is a distinct over a union-all.

Each operator exposes:

* ``columns`` — output schema as a list of ``(qualifier, name)`` pairs,
* ``est_rows`` — the planner's cardinality estimate,
* ``batches()`` — an iterator of :class:`~repro.relational.batch.
  ColumnBatch` blocks of at most ``BATCH_SIZE`` rows: the one execution
  contract every operator implements (see ``docs/EXECUTION.md``),
* ``rows()`` — the same output flattened to tuples by the base class, for
  consumers that want rows,
* ``children_ops()`` / ``describe()`` — plan-tree introspection, used by
  EXPLAIN and by ``repro.obs.stats.instrument_plan`` for EXPLAIN ANALYZE.

An operator receives each expression it evaluates — filter predicates,
projections, join keys and residuals, sort keys,
aggregate inputs — as one batch kernel ``(columns, positions) -> list``
(``Expression.compile_batch``), called once per block.

A plan is cached and re-opened by later executions
(:mod:`repro.relational.plan`), so an operator keeps no per-execution
data: ``?`` values, CTE rows and the like are read when ``batches()``
runs, and its working state lives in that call's locals.

Streaming operators (scan, filter, project, unnest, union-all, limit) are
generators; blocking operators (hash join build side, sort, distinct,
aggregate) materialize what they must.  Instrumentation shadows
``batches`` with an instance attribute on the plan being analyzed, so the
uninstrumented path pays nothing and nothing is counted twice.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate, chain, compress, islice, repeat

from repro.relational.batch import (
    BATCH_SIZE,
    ColumnBatch,
    MaterializedRelation,
    batches_from_rows,
    dense_batches,
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


def _filtered(blocks, predicate):
    """Narrow each of *blocks* to the positions where the batch kernel
    *predicate* is true (``None`` filters nothing).  A block that loses no
    row passes through unchanged, one that loses every row is dropped, and
    any other shares its column lists under a narrower selection vector.
    """
    if predicate is None:
        yield from blocks
        return
    for block in blocks:
        positions = block.positions()
        values = predicate(block.columns, positions)
        sel = [i for i, value in zip(positions, values) if value]
        if len(sel) == len(positions):
            yield block
        elif sel:
            yield ColumnBatch(block.columns, block.length, sel)


def _opened(value):
    """The value of an operator argument for the execution opening it: a
    zero-argument callable (a bound ``?``) is called, anything else is
    already the value."""
    return value() if callable(value) else value


def _rid_batches(table, rids, width):
    """Fetch *rids* in chunks via ``table.get_many`` and yield the live
    rows as dense blocks.  Index scans go through this so the buffer pool
    is touched once per page per chunk, not once per RID."""
    rids = iter(rids)
    while chunk := list(islice(rids, BATCH_SIZE)):
        live = [row for row in table.get_many(chunk) if row is not None]
        if live:
            yield ColumnBatch.from_rows(live, width)


class Operator:
    """Base of all physical operators.

    The contract is :meth:`batches`: an iterator of :class:`ColumnBatch`
    blocks of at most ``BATCH_SIZE`` rows whose selection vectors
    consumers must honor.  :meth:`rows` is the same output as tuples, in
    the same order.
    """

    columns = ()
    est_rows = 0

    def batches(self):
        """Yield output :class:`ColumnBatch` blocks."""
        raise NotImplementedError

    def rows(self):
        """Yield output rows as tuples, for consumers that want them."""
        for block in self.batches():
            yield from block.iter_rows()

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
    # cost interface (consumed by the planner when statistics exist)
    # ------------------------------------------------------------------
    #: ANALYZE-derived ``{fingerprint: ndv}`` the planner attaches to base
    #: accesses; ``distinct_values`` consults it before asking children
    stats_ndv = None

    def records_output(self):
        """Estimated output row count (the planner's ``est_rows``)."""
        return self.est_rows

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


class _TableScan(Operator):
    """A scan of one heap table's rows through a pushed predicate.

    Besides :meth:`batches` it serves :meth:`rid_rows`, the same rows with
    their RIDs, which is how UPDATE and DELETE find theirs.  An index scan
    states only the RIDs it reads (``_rids``); :class:`SeqScan` reads the
    whole heap instead.
    """

    def _rid_row_source(self):
        """The live ``(rid, row)`` pairs before the predicate."""
        rids = iter(self._rids())
        while chunk := list(islice(rids, BATCH_SIZE)):
            for rid, row in zip(chunk, self.table.get_many(chunk)):
                if row is not None:
                    yield rid, row

    def batches(self):
        return _filtered(
            _rid_batches(self.table, self._rids(), len(self.columns)),
            self.predicate,
        )

    def rid_rows(self):
        """The ``(rid, row)`` pairs of the rows :meth:`batches` yields,
        one predicate kernel call per block."""
        pairs = iter(self._rid_row_source())
        while chunk := list(islice(pairs, BATCH_SIZE)):
            if self.predicate is None:
                yield from chunk
                continue
            block = ColumnBatch.from_rows(
                [row for __, row in chunk], len(self.columns)
            )
            yield from compress(
                chunk, self.predicate(block.columns, block.positions())
            )


class SeqScan(_TableScan):
    """Full scan of a heap table, optionally with a pushed-down predicate.

    Emits the table's pages as dense blocks via
    :meth:`HeapTable.scan_batches`; a pushed predicate narrows each block
    to a selection vector in place (column lists are never copied).
    """

    def __init__(self, table, qualifier, predicate=None, est_rows=None):
        self.table = table
        self.qualifier = qualifier
        self.predicate = predicate
        self.columns = [(qualifier, name) for name in table.schema.column_names]
        self.est_rows = est_rows if est_rows is not None else table.live_rows

    def describe(self):
        suffix = " filtered" if self.predicate is not None else ""
        return f"SeqScan({self.table.name} as {self.qualifier}){suffix}"

    def batches(self):
        return _filtered(self.table.scan_batches(), self.predicate)

    def _rid_row_source(self):
        return self.table.scan()


class IndexEqScan(_TableScan):
    """Equality lookup through a hash or sorted index with constant keys.

    *key_fns* are zero-argument callables, one per key to probe, called
    each time the scan is opened: a key bound from a ``?`` reads the
    current execution's value.  Fetched rows are packed into dense blocks
    in probe order; a residual predicate narrows each block's selection
    vector.
    """

    def __init__(self, table, qualifier, index, key_fns, predicate=None,
                 est_rows=1):
        self.table = table
        self.qualifier = qualifier
        self.index = index
        self.key_fns = key_fns
        self.predicate = predicate
        self.columns = [(qualifier, name) for name in table.schema.column_names]
        self.est_rows = est_rows

    def describe(self):
        return (
            f"IndexEqScan({self.table.name} as {self.qualifier} "
            f"via {self.index.name})"
        )

    def _rids(self):
        # a key listed twice (``k IN (1, 1)``) is probed once
        keys = {make_hashable(key): key for key in (fn() for fn in self.key_fns)}
        lookup = self.index.lookup
        return (rid for key in keys.values() for rid in lookup(key))


class IndexRangeScan(_TableScan):
    """Range scan through a sorted index: dense blocks in index order, a
    residual predicate applied per block.  *low* / *high* are ``None``
    (unbounded), a value, or a zero-argument callable read when the scan
    is opened, like :class:`IndexEqScan`'s keys."""

    def __init__(self, table, qualifier, index, low, high, low_inclusive,
                 high_inclusive, predicate=None, est_rows=1):
        self.table = table
        self.qualifier = qualifier
        self.index = index
        self.low = low
        self.high = high
        self.low_inclusive = low_inclusive
        self.high_inclusive = high_inclusive
        self.predicate = predicate
        self.columns = [(qualifier, name) for name in table.schema.column_names]
        self.est_rows = est_rows

    def describe(self):
        return (
            f"IndexRangeScan({self.table.name} as {self.qualifier} "
            f"via {self.index.name})"
        )

    def _rids(self):
        return self.index.range_scan(
            _opened(self.low), _opened(self.high),
            self.low_inclusive, self.high_inclusive,
        )


class MaterializedScan(Operator):
    """Scan over a materialized result (CTE bodies, VALUES).

    *source* is either a plain list of row tuples or a
    :class:`MaterializedRelation`, whose stored blocks are emitted as-is
    (zero-copy); a predicate narrows selection vectors per block.  Given
    a *runtime*, *source* is instead the name of a CTE result, looked up in ``runtime.ctes`` each time the scan is opened,
    so a cached plan reads the current execution's rows.
    """

    def __init__(self, source, columns, predicate=None, runtime=None):
        self.source = source
        self.runtime = runtime
        self.columns = list(columns)
        self.predicate = predicate
        relation = self._relation()
        if isinstance(relation, MaterializedRelation):
            self.est_rows = relation.row_count()
        else:
            self.est_rows = len(relation)

    def _relation(self):
        if self.runtime is None:
            return self.source
        return self.runtime.ctes[self.source][1]

    def describe(self):
        return f"MaterializedScan({self.est_rows} rows)"

    def batches(self):
        relation = self._relation()
        if isinstance(relation, MaterializedRelation):
            blocks = relation.iter_batches()
        else:
            blocks = batches_from_rows(relation, len(self.columns))
        return _filtered(blocks, self.predicate)


class FilterOp(Operator):
    """Keep the rows where the *predicate* kernel evaluates true.

    Narrows each child block's selection vector — column lists pass
    through untouched (zero-copy).
    """

    def __init__(self, child, predicate, est_rows=None):
        self.child = child
        self.predicate = predicate
        self.columns = child.columns
        self.est_rows = est_rows if est_rows is not None else max(
            1, child.est_rows // 3
        )

    def batches(self):
        return _filtered(self.child.batches(), self.predicate)


class ProjectOp(Operator):
    """Compute the SELECT list.

    Emits one dense block per child block, each output column produced by
    one ``value_fns`` kernel call (a bare column reference aliases the
    input column list — zero-copy).
    """

    def __init__(self, child, value_fns, columns):
        self.child = child
        self.value_fns = value_fns
        self.columns = list(columns)
        self.est_rows = child.est_rows

    def batches(self):
        value_fns = self.value_fns
        for block in self.child.batches():
            positions = block.positions()
            if len(positions):
                yield ColumnBatch(
                    [fn(block.columns, positions) for fn in value_fns],
                    len(positions),
                )


def _join_keys(columns, positions, key_fns):
    """One join key per live position: the bare value of a single key
    expression, a tuple of several — or ``None`` when any part is NULL
    (NULL never joins)."""
    lists = [fn(columns, positions) for fn in key_fns]
    if len(lists) == 1:
        return lists[0]
    return [None if None in key else key for key in zip(*lists)]


def _stitch(block, rows, counts, residual, pad):
    """Join one probe-side *block* to its candidate matches.

    *rows* is the flat list of candidate inner rows, ``counts[k]`` of them
    for the block's k-th live position, in order.  *residual* is a batch
    kernel over the joined columns (probe, then inner) that drops pairs:
    an inner join narrows each output block with it, as a filter does.
    With *pad* (left outer), the pairs it rejects are dropped first and a
    probe row left without any is emitted beside *pad*.
    """
    if pad is None:
        return _filtered(_joined(block, rows, counts), residual)
    if residual is not None:
        kept = [
            value
            for joined in _joined(block, rows, counts)
            for value in residual(joined.columns, joined.positions())
        ]
        rows = list(compress(rows, kept))
        flags = iter(kept)
        counts = [sum(map(bool, islice(flags, n))) for n in counts]
    if 0 in counts:
        # regroup per probe row: one left without a match pairs with pad
        candidates, rows = rows, []
        for n, end in zip(counts, accumulate(counts)):
            rows.extend(candidates[end - n:end] if n else (pad,))
        counts = [n or 1 for n in counts]
    return _joined(block, rows, counts)


def _joined(block, rows, counts):
    """Dense blocks pairing the block's k-th live position with the next
    ``counts[k]`` of *rows*: the probe columns gathered by position, the
    inner rows transposed, at most ``BATCH_SIZE`` rows at a time, so a key
    that fans out past it never builds one oversized block."""
    out_positions = list(chain.from_iterable(
        map(repeat, block.positions(), counts)
    ))
    columns = block.columns
    for start in range(0, len(rows), BATCH_SIZE):
        picks = out_positions[start:start + BATCH_SIZE]
        chunk = rows[start:start + BATCH_SIZE]
        gathered = [[column[i] for i in picks] for column in columns]
        gathered.extend(map(list, zip(*chunk)))
        yield ColumnBatch(gathered, len(chunk))


def _left_pad(kind, width):
    return (None,) * width if kind == "left" else None


class HashJoinOp(Operator):
    """Equi hash join; builds on the right child.

    ``kind`` is ``'inner'`` or ``'left'`` (left outer: unmatched left rows
    are padded with NULLs).  The key functions and the optional
    ``residual`` (an extra predicate over the joined columns) are batch
    kernels.
    """

    def __init__(self, left, right, left_key_fns, right_key_fns, kind="inner",
                 residual=None, est_rows=None):
        self.left = left
        self.right = right
        self.left_key_fns = left_key_fns
        self.right_key_fns = right_key_fns
        self.kind = kind
        self.residual = residual
        self.columns = list(left.columns) + list(right.columns)
        if est_rows is None:
            est_rows = max(left.est_rows, right.est_rows)
        self.est_rows = est_rows

    def describe(self):
        return f"HashJoin[{self.kind}]"

    def batches(self):
        # keys are hashed raw; make_hashable runs only for a key that turns
        # out unhashable (same trick as DistinctOp)
        build = {}
        for block in self.right.batches():
            keys = _join_keys(
                block.columns, block.positions(), self.right_key_fns
            )
            for key, row in zip(keys, block.iter_rows()):
                if key is None:
                    continue
                try:
                    bucket = build.get(key)
                except TypeError:
                    key = make_hashable(key)
                    bucket = build.get(key)
                if bucket is None:
                    build[key] = [row]
                else:
                    bucket.append(row)

        pad = _left_pad(self.kind, len(self.right.columns))
        for block in self.left.batches():
            keys = _join_keys(
                block.columns, block.positions(), self.left_key_fns
            )
            try:  # a NULL key finds nothing: none was ever built
                buckets = list(map(build.get, keys, repeat(())))
            except TypeError:
                buckets = [build.get(make_hashable(key), ()) for key in keys]
            yield from _stitch(
                block, list(chain.from_iterable(buckets)),
                list(map(len, buckets)), self.residual, pad,
            )


class IndexNLJoinOp(Operator):
    """Index nested-loop join: probe an index of the inner base table with a
    key computed from each outer row.

    Per outer block: one ``outer_key_fns`` kernel call per key part, one
    index probe per key, one batched heap fetch for every candidate RID,
    then the shared stitch (residual, left-outer padding, bounded blocks).
    """

    def __init__(self, outer, table, qualifier, index, outer_key_fns,
                 residual=None, kind="inner", est_rows=None):
        self.outer = outer
        self.table = table
        self.qualifier = qualifier
        self.index = index
        self.outer_key_fns = outer_key_fns
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

    def batches(self):
        table = self.table
        lookup = self.index.lookup
        pad = _left_pad(self.kind, self._inner_width)
        for block in self.outer.batches():
            keys = _join_keys(
                block.columns, block.positions(), self.outer_key_fns
            )
            # probe the index for every live position first, so the heap
            # fetch of all candidate RIDs is batched per page
            flat_rids = []
            counts = []  # candidate RIDs per position
            for key in keys:
                rids = lookup(key) if key is not None else ()
                flat_rids.extend(rids)
                counts.append(len(rids))
            fetched = table.get_many(flat_rids) if flat_rids else []
            if None in fetched:  # a RID whose row has been deleted
                slots = iter(fetched)
                counts = [
                    sum(row is not None for row in islice(slots, n))
                    for n in counts
                ]
                fetched = [row for row in fetched if row is not None]
            yield from _stitch(block, fetched, counts, self.residual, pad)


class LateralUnnestOp(Operator):
    """Lateral ``TABLE(VALUES (e1), (e2), ...) AS alias(col,...)``.

    For each input row, evaluates every VALUES row (whose expressions may
    reference the input row) and emits input + values concatenated.  This
    is how OPA/IPA adjacency triads (``lbl0,eid0,val0`` …) explode into
    one row per stored edge (paper §3.2).

    Each child block yields ``len(rows_of_fns)`` output rows per live
    input row, interleaved in input-row-major order.  Child column values
    are repeated per VALUES row; each VALUES cell is computed by one
    kernel call per block and written with a strided slice assignment —
    the triad columns are gathered without building a single row tuple.
    """

    def __init__(self, child, rows_of_fns, columns):
        self.child = child
        self.rows_of_fns = rows_of_fns
        self.columns = list(child.columns) + list(columns)
        self.est_rows = child.est_rows * max(1, len(rows_of_fns))
        self._value_width = len(columns)

    def batches(self):
        rows_of_fns = self.rows_of_fns
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
                    out_columns.append(gathered)
                else:
                    out_columns.append(
                        [value for value in gathered for __ in range(value_rows)]
                    )
            value_columns = [[None] * total for __ in range(value_width)]
            for j, fns in enumerate(rows_of_fns):
                for out, fn in zip(value_columns, fns):
                    out[j::value_rows] = fn(block.columns, positions)
            yield from dense_batches(out_columns + value_columns, total)


class UnionAllOp(Operator):
    """Concatenate children, preserving duplicates and child order; each
    child's blocks pass through unchanged (zero-copy)."""

    def __init__(self, children):
        self.children = children
        self.columns = list(children[0].columns)
        self.est_rows = sum(child.est_rows for child in children)

    def batches(self):
        for child in self.children:
            yield from child.batches()


class DistinctOp(Operator):
    """Drop duplicate rows, keeping first occurrences in order.

    Narrows each child block's selection vector to first-seen rows —
    column lists pass through untouched (zero-copy); dedup keys are built
    straight from the column lists without materializing row tuples.
    """

    def __init__(self, child):
        self.child = child
        self.columns = child.columns
        self.est_rows = max(1, child.est_rows // 2)

    def batches(self):
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


class AggregateOp(Operator):
    """Hash aggregation.

    Output row layout: group-by values first, then one column per aggregate
    spec.  ``group_fns`` are batch kernels; ``agg_specs`` is a list of
    ``(kind, value_kernel_or_None, distinct)`` — ``kind == 'count_star'``
    needs no value kernel.

    Group keys and aggregate inputs are evaluated once per child block;
    the result rows come out in first-occurrence group order.
    """

    def __init__(self, child, group_fns, agg_specs, columns):
        self.child = child
        self.group_fns = group_fns
        self.agg_specs = agg_specs
        self.columns = list(columns)
        self.est_rows = max(1, child.est_rows // 10) if group_fns else 1

    def batches(self):
        group_fns = self.group_fns
        value_fns = [value_fn for __, value_fn, __d in self.agg_specs]
        accs = [
            _ColumnAgg(kind, distinct) for kind, __, distinct in self.agg_specs
        ]
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
                group_lists = [fn(block.columns, positions) for fn in group_fns]
                gids = _assign_group_ids(group_lists, group_ids, raw_values)
            for acc, fn in zip(accs, value_fns):
                values = None if fn is None else fn(block.columns, positions)
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
        yield from dense_batches(columns, len(group_ids))


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
    Floats are summed in input order."""

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
    """Stable multi-key sort.  The child blocks are materialized column by
    column, each key kernel runs once per child block, and the sorted
    positions are gathered into dense blocks."""

    def __init__(self, child, key_fns, descending_flags):
        self.child = child
        self.key_fns = key_fns
        self.descending_flags = descending_flags
        self.columns = child.columns
        self.est_rows = child.est_rows

    def batches(self):
        columns = [[] for __ in self.columns]
        keys = [[] for __ in self.key_fns]
        count = 0
        for block in self.child.batches():
            positions = block.positions()
            if not len(positions):
                continue
            for out, fn in zip(keys, self.key_fns):
                out.extend(fn(block.columns, positions))
            for out, column in zip(columns, block.compact().columns):
                out.extend(column)
            count += len(positions)
        # stable multi-key sort: apply keys right-to-left
        order = range(count)
        for values, descending in reversed(
            list(zip(keys, self.descending_flags))
        ):
            sort_keys = list(map(total_order_key, values))
            order = sorted(order, key=sort_keys.__getitem__, reverse=descending)
        return dense_batches(
            [[column[i] for i in order] for column in columns], count
        )


class LimitOp(Operator):
    """LIMIT / OFFSET over the child's output order.

    Slices each child block's selection vector to honor the offset and
    remaining limit (zero-copy — column lists pass through), and stops
    pulling from the child once the limit is exhausted.  *limit* and
    *offset* are ints, ``None``, or zero-argument callables read when the
    operator is opened (a ``LIMIT ?``).
    """

    def __init__(self, child, limit=None, offset=None):
        self.child = child
        self.limit = limit
        self.offset = offset
        self.columns = child.columns
        limit = _opened(limit)
        self.est_rows = min(child.est_rows, limit) if limit is not None else (
            child.est_rows
        )

    def batches(self):
        remaining = _opened(self.limit)
        if remaining is not None and remaining <= 0:
            return
        to_skip = _opened(self.offset) or 0
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

"""Columnar execution blocks: :class:`ColumnBatch` and its helpers.

The executor moves data *batch-at-a-time* (see ``docs/EXECUTION.md``).  A
batch is a small set of parallel Python lists — one per output column —
plus an optional *selection vector* of live positions, so filters and
DISTINCT narrow a batch without copying any values.  Operators hand
batches to each other through ``Operator.batches()``, the engine's only
execution contract; ``Operator.rows()`` flattens the same blocks into
tuples for consumers that want rows (ResultSet materialization, scalar
subqueries, the recursive-CTE dedup loop).  Operators evaluate every
expression as a batch kernel over a block's column lists
(:mod:`repro.relational.expressions`).

Batches are **immutable once yielded**: downstream operators may alias
the column lists (zero-copy projection/filter/distinct) but must never
mutate them; narrowing happens by replacing the selection vector only.

No block an operator yields, and none a :class:`MaterializedRelation`
serves, holds more than :data:`BATCH_SIZE` rows: a join key or an UNNEST
that fans one input row out to many is emitted as several blocks, so no
downstream operator ever sizes its working lists by a fan-out.
"""

from __future__ import annotations

#: upper bound on the rows of any block.  Large enough to amortize
#: per-batch overhead, small enough to keep selection vectors and value
#: lists cache-friendly.
BATCH_SIZE = 1024


class ColumnBatch:
    """A block of rows stored column-wise.

    :param columns: one Python list per output column; all the same length.
    :param length: number of physical row positions (explicit so that
        zero-column relations — ``SELECT COUNT(*)`` inputs — keep a row
        count).
    :param sel: optional ascending selection vector of live positions;
        ``None`` means every position is live.  All batch consumers must
        honor it — actual-row accounting counts *selected* positions, never
        physical batch sizes.
    """

    __slots__ = ("columns", "length", "sel")

    def __init__(self, columns, length, sel=None):
        self.columns = columns
        self.length = length
        self.sel = sel

    @classmethod
    def from_rows(cls, rows, width):
        """Transpose a list of row tuples into a dense batch."""
        if not rows:
            return cls([[] for __ in range(width)], 0)
        if width == 0:
            return cls([], len(rows))
        return cls([list(column) for column in zip(*rows)], len(rows))

    def selected_count(self):
        """Number of live rows (the EXPLAIN ANALYZE ``actual_rows`` unit)."""
        if self.sel is not None:
            return len(self.sel)
        return self.length

    def positions(self):
        """Live positions, in order (a list or a range)."""
        if self.sel is not None:
            return self.sel
        return range(self.length)

    def iter_rows(self):
        """Yield live rows as tuples, in position order."""
        columns = self.columns
        if not columns:
            for __ in range(self.selected_count()):
                yield ()
            return
        if self.sel is None:
            yield from zip(*columns)
            return
        for i in self.sel:
            yield tuple(column[i] for column in columns)

    def compact(self):
        """Return a dense batch (selection applied).  Zero-copy when the
        batch already is dense."""
        if self.sel is None:
            return self
        sel = self.sel
        return ColumnBatch(
            [[column[i] for i in sel] for column in self.columns], len(sel)
        )

    def __repr__(self):
        return (
            f"ColumnBatch({len(self.columns)} cols x {self.length} rows, "
            f"{self.selected_count()} selected)"
        )


def batches_from_rows(row_iter, width, batch_size=BATCH_SIZE):
    """Pack a row iterator into dense batches of at most *batch_size*."""
    buffer = []
    append = buffer.append
    for row in row_iter:
        append(row)
        if len(buffer) >= batch_size:
            yield ColumnBatch.from_rows(buffer, width)
            buffer = []
            append = buffer.append
    if buffer:
        yield ColumnBatch.from_rows(buffer, width)


def dense_batches(columns, length):
    """Serve *length* rows held in parallel *columns* as dense batches of
    at most :data:`BATCH_SIZE` (zero-copy when they fit in one)."""
    if length <= BATCH_SIZE:
        if length:
            yield ColumnBatch(columns, length)
        return
    for start in range(0, length, BATCH_SIZE):
        stop = min(start + BATCH_SIZE, length)
        yield ColumnBatch(
            [column[start:stop] for column in columns], stop - start
        )


class MaterializedRelation:
    """A materialized intermediate result (a CTE body),
    stored as the dense blocks its plan produced so that re-scanning it
    never transposes."""

    __slots__ = ("_batches", "_count")

    def __init__(self, batches):
        self._batches = batches
        self._count = sum(batch.selected_count() for batch in batches)

    @classmethod
    def from_plan(cls, plan):
        """Run *plan* to completion and keep its output."""
        return cls([batch.compact() for batch in plan.batches()])

    def row_count(self):
        return self._count

    def iter_batches(self):
        return iter(self._batches)

"""Unit and regression tests for the batch-at-a-time executor.

Covers the :mod:`repro.relational.batch` primitives, the bound on block
size, the column-loop aggregate kernel, and the EXPLAIN ANALYZE guarantee
that ``actual_rows`` counts *selected* positions exactly — never physical
batch sizes.
"""

import re

import pytest

from repro.relational import Database
from repro.relational import expressions as ex
from repro.relational import operators as op
from repro.relational.batch import (
    BATCH_SIZE,
    ColumnBatch,
    MaterializedRelation,
    batches_from_rows,
)
from repro.relational.index import total_order_key


class TestColumnBatch:
    def test_from_rows_dense(self):
        block = ColumnBatch.from_rows([(1, "a"), (2, "b"), (3, "c")], 2)
        assert block.length == 3
        assert block.sel is None
        assert block.columns == [[1, 2, 3], ["a", "b", "c"]]
        assert block.selected_count() == 3
        assert list(block.iter_rows()) == [(1, "a"), (2, "b"), (3, "c")]

    def test_from_rows_empty(self):
        block = ColumnBatch.from_rows([], 2)
        assert block.length == 0
        assert block.columns == [[], []]
        assert list(block.iter_rows()) == []

    def test_zero_width_batch_keeps_count(self):
        # COUNT(*) inputs: no columns, but the row count must survive
        block = ColumnBatch.from_rows([(), (), ()], 0)
        assert block.length == 3
        assert block.selected_count() == 3
        assert list(block.iter_rows()) == [(), (), ()]

    def test_selection_vector_narrows(self):
        block = ColumnBatch([[1, 2, 3, 4], [10, 20, 30, 40]], 4, [1, 3])
        assert block.selected_count() == 2
        assert list(block.positions()) == [1, 3]
        assert list(block.iter_rows()) == [(2, 20), (4, 40)]

    def test_dense_positions_is_range(self):
        # "all live" is represented as a range, the zero-copy marker the
        # expression kernels test for
        block = ColumnBatch([[1, 2]], 2)
        assert type(block.positions()) is range
        assert list(block.positions()) == [0, 1]

    def test_compact_applies_selection(self):
        block = ColumnBatch([[1, 2, 3], ["a", "b", "c"]], 3, [0, 2])
        dense = block.compact()
        assert dense.sel is None
        assert dense.columns == [[1, 3], ["a", "c"]]
        assert dense.length == 2

    def test_compact_dense_is_zero_copy(self):
        block = ColumnBatch([[1, 2]], 2)
        assert block.compact() is block

    def test_batches_from_rows_chunks(self):
        rows = [(i,) for i in range(10)]
        blocks = list(batches_from_rows(iter(rows), 1, batch_size=4))
        assert [b.length for b in blocks] == [4, 4, 2]
        assert [r for b in blocks for r in b.iter_rows()] == rows


class TestMaterializedRelation:
    class _FakePlan:
        columns = [(None, "a"), (None, "b")]

        def __init__(self, rows):
            self._rows = rows

        def batches(self):
            return batches_from_rows(iter(self._rows), 2, batch_size=2)

    def test_round_trip(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        relation = MaterializedRelation.from_plan(self._FakePlan(rows))
        assert relation.row_count() == 3
        assert [
            r for b in relation.iter_batches() for r in b.iter_rows()
        ] == rows


class TestHandBuiltKernels:
    """Operators built by hand take the batch kernels
    ``Expression.compile_batch`` makes — the one form every expression
    compiles to."""

    def test_filter_project_with_kernels(self):
        source = op.MaterializedScan(
            [(i, i * 10) for i in range(7)], [(None, "a"), (None, "b")]
        )
        ctx = ex.CompileContext(op.make_resolver(source.columns))
        a, b = ex.ColumnRef(None, "a"), ex.ColumnRef(None, "b")
        filtered = op.FilterOp(source, ex.Comparison(
            "=", ex.BinaryOp("%", a, ex.Literal(2)), ex.Literal(0)
        ).compile_batch(ctx))
        project = op.ProjectOp(
            filtered,
            [ex.BinaryOp("+", b, ex.Literal(1)).compile_batch(ctx)],
            [(None, "c")],
        )
        assert list(project.rows()) == [(1,), (21,), (41,), (61,)]

    def test_aggregate_with_kernels(self):
        source = op.MaterializedScan(
            [(1, 5), (2, 6), (1, 7)], [(None, "g"), (None, "v")]
        )
        agg = op.AggregateOp(
            source,
            [ex.column_kernel(0)],
            [("sum", ex.column_kernel(1), False)],
            [(None, "g"), (None, "s")],
        )
        assert sorted(agg.rows()) == [(1, 12), (2, 6)]


def _max_block(blocks):
    return max(max(b.length, b.selected_count()) for b in blocks)


class TestBlockBound:
    """No operator hands a block of more than BATCH_SIZE rows downstream,
    however far one input row fans out — and chunking never reorders."""

    FANOUT = 5000

    def _fanout_db(self, index):
        database = Database()
        database.execute("CREATE TABLE seed (k INTEGER)")
        database.execute("CREATE TABLE wide (k INTEGER, n INTEGER)")
        database.execute("INSERT INTO seed VALUES (7)")
        database.execute(
            "INSERT INTO wide VALUES "
            + ", ".join(f"(7, {n})" for n in range(self.FANOUT))
        )
        if index:
            database.execute("CREATE INDEX wide_k ON wide (k)")
        return database

    def _plan(self, database, sql):
        from repro.relational.planner import Planner, Runtime
        from repro.relational.sql.parser import parse_statement

        planner = Planner(database, Runtime(database))
        return planner.plan_select_statement(parse_statement(sql))

    @pytest.mark.parametrize("index", [True, False])
    def test_one_row_outer_to_many_match_inner(self, index):
        database = self._fanout_db(index)
        plan = self._plan(
            database,
            "SELECT w.n FROM seed s, wide w WHERE s.k = w.k",
        )
        join = op.IndexNLJoinOp if index else op.HashJoinOp
        assert any(isinstance(node, join) for node in _walk(plan))
        blocks = list(plan.batches())
        assert _max_block(blocks) <= BATCH_SIZE
        assert [r for b in blocks for r in b.iter_rows()] == [
            (n,) for n in range(self.FANOUT)
        ]
        # ... and the same bound holds for what a CTE materializes
        relation = MaterializedRelation.from_plan(plan)
        assert _max_block(list(relation.iter_batches())) <= BATCH_SIZE

    def test_unnest_of_wide_values_list(self):
        width = 3 * BATCH_SIZE + 17
        database = self._fanout_db(index=False)
        values = ", ".join(f"(s.k + {n})" for n in range(width))
        plan = self._plan(
            database,
            f"SELECT t.val FROM seed s, TABLE(VALUES {values}) AS t(val)",
        )
        blocks = list(plan.batches())
        assert _max_block(blocks) <= BATCH_SIZE
        assert [r for b in blocks for r in b.iter_rows()] == [
            (7 + n,) for n in range(width)
        ]

    def test_blocking_operators_chunk_their_output(self):
        database = self._fanout_db(index=False)
        for sql in (
            "SELECT n, COUNT(*) FROM wide GROUP BY n",
            "SELECT n FROM wide ORDER BY n DESC",
            "SELECT n FROM wide UNION SELECT k FROM seed",
            "SELECT w.n FROM seed s, wide w WHERE s.k = w.k AND s.k <> w.n",
        ):
            blocks = list(self._plan(database, sql).batches())
            assert sum(b.selected_count() for b in blocks) >= self.FANOUT - 1
            assert _max_block(blocks) <= BATCH_SIZE, sql


def _walk(plan):
    yield plan
    for child in plan.children_ops():
        yield from _walk(child)


class _SmallBlocks(op.Operator):
    """Feed fixed rows as several small blocks, one with a selection."""

    def __init__(self, rows, width, size):
        self.source_rows, self.size = rows, size
        self.columns = [(None, f"c{i}") for i in range(width)]

    def batches(self):
        rows = self.source_rows
        blocks = list(batches_from_rows(iter(rows), len(self.columns),
                                        self.size))
        if blocks:
            # re-express the first block through a selection vector
            first = blocks[0]
            padded = [column + column for column in first.columns]
            blocks[0] = ColumnBatch(
                padded, 2 * first.length, list(range(first.length))
            )
        return iter(blocks)


def _fold(rows, group_positions, specs):
    """Plain-Python reference for a grouped aggregate: one pass per group
    over its rows in input order, groups in first-occurrence order."""
    groups = {}
    for row in rows:
        values = tuple(row[p] for p in group_positions)
        groups.setdefault(op.hashable_row(values), (values, []))[1].append(row)
    if not groups and not group_positions:
        groups[()] = ((), [])
    out = []
    for values, members in groups.values():
        cells = []
        for kind, position, distinct in specs:
            if kind == "count_star":
                cells.append(len(members))
                continue
            inputs = [r[position] for r in members if r[position] is not None]
            if distinct:
                first = {}
                for value in inputs:
                    first.setdefault(op.make_hashable(value), value)
                inputs = list(first.values())
            if kind == "count":
                cells.append(len(inputs))
            elif not inputs:
                cells.append(None)
            elif kind in ("sum", "avg"):
                total = inputs[0]
                for value in inputs[1:]:
                    total = total + value
                cells.append(total if kind == "sum" else total / len(inputs))
            else:
                best = inputs[0]
                for value in inputs[1:]:
                    low, high = total_order_key(value), total_order_key(best)
                    if low < high if kind == "min" else high < low:
                        best = value
                cells.append(best)
        out.append(values + tuple(cells))
    return out


class TestColumnAggregateKernel:
    """The column-loop kernel against a plain-Python fold: same rows, same
    order, same float bits."""

    SPECS = [
        ("count_star", None, False),
        ("count", 2, False),
        ("count", 2, True),
        ("sum", 1, False),
        ("sum", 1, True),
        ("avg", 1, False),
        ("avg", 1, True),
        ("min", 2, False),
        ("max", 2, False),
        ("min", 1, False),
        ("max", 1, True),
    ]

    def rows(self, seed, count):
        rng = __import__("random").Random(seed)
        keys = [None, 1, 1.0, True, "k", [1, 2], {"a": [1]}, (1, 2), 2]
        numbers = [None, 0.1, 0.2, 0.3, 1, 2, 1e16, -1e16, 7]
        mixed = [None, 3, 2.5, "s", "t", True, False, [1], {"z": 1}, 3.0]
        return [
            (rng.choice(keys), rng.choice(numbers), rng.choice(mixed))
            for __ in range(count)
        ]

    def aggregate(self, rows, group_positions):
        source = _SmallBlocks(rows, 3, size=7)
        specs = [
            (kind,
             None if p is None else ex.column_kernel(p), d)
            for kind, p, d in self.SPECS
        ]
        columns = [(None, f"o{i}")
                   for i in range(len(group_positions) + len(specs))]
        return op.AggregateOp(
            source,
            [ex.column_kernel(p) for p in group_positions],
            specs, columns,
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("groups", [(), (0,), (0, 2)])
    def test_matches_plain_fold_exactly(self, seed, groups):
        rows = self.rows(seed, 60)
        got = list(self.aggregate(rows, groups).rows())
        assert [repr(row) for row in got] == [
            repr(row) for row in _fold(rows, groups, self.SPECS)
        ]

    @pytest.mark.parametrize("groups", [(), (0,)])
    def test_empty_input(self, groups):
        agg = self.aggregate([], groups)
        got = list(agg.rows())
        if groups:
            assert got == []
        else:
            assert got == [
                (0, 0, 0, None, None, None, None, None, None, None, None)
            ]

    def test_unknown_kind_is_a_bind_error(self):
        from repro.relational.errors import BindError

        source = _SmallBlocks([(1, 2, 3)], 3, size=7)
        agg = op.AggregateOp(
            source, [], [("median", ex.column_kernel(1), False)],
            [(None, "m")],
        )
        with pytest.raises(BindError):
            list(agg.rows())


def _make_db():
    database = Database()
    database.execute(
        "CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)"
    )
    for i in range(50):
        database.execute("INSERT INTO t VALUES (?, ?)", [i, i % 5])
    return database


def _analyze(database, sql):
    result = database.execute("EXPLAIN ANALYZE " + sql)
    return "\n".join(row[0] for row in result.rows)


def _actual_rows(text):
    """Ordered list of actual_rows annotations in a rendered plan."""
    return [int(m) for m in re.findall(r"actual_rows=(\d+)", text)]


class TestExplainAnalyzeExactness:
    """Regression: per-operator actual-row counts must count selected
    positions, not batch sizes."""

    SQL = "SELECT v, COUNT(*) FROM t WHERE v < 3 GROUP BY v"

    def test_counts_are_selected_rows(self):
        text = _analyze(_make_db(), self.SQL)
        # project, aggregate, then a 50-row scan filtered to v<3: exactly
        # 30 selected rows
        assert _actual_rows(text) == [3, 3, 30]

    def test_every_executed_operator_reports_batches(self):
        text = _analyze(_make_db(), self.SQL)
        annotated = [line for line in text.splitlines() if "actual_rows=" in line]
        assert annotated
        assert all(re.search(r"batches=\d+", line) for line in annotated)

    def test_filtered_scan_counts_survivors_only(self):
        text = _analyze(_make_db(), "SELECT id FROM t WHERE v = 0")
        # the scan emits physical blocks of 50 rows but only 10 selected
        # positions; the annotation must report the 10
        counts = _actual_rows(text)
        assert counts and all(c == 10 for c in counts)

    def test_limit_counts_are_exact(self):
        text = _analyze(_make_db(), "SELECT id FROM t LIMIT 7")
        assert 7 in _actual_rows(text)

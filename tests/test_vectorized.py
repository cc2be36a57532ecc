"""Unit and regression tests for the vectorized (batch-at-a-time) executor.

Covers the :mod:`repro.relational.batch` primitives, the
``REPRO_VECTORIZED`` knob, the row-compat shims, and the EXPLAIN ANALYZE
guarantee that ``actual_rows`` counts *selected* positions exactly —
never physical batch sizes — so observability output is identical in
both executor modes.
"""

import os
import re
import subprocess
import sys

import pytest

from repro.relational import Database
from repro.relational import batch as batch_mod
from repro.relational import operators as op
from repro.relational.batch import (
    BatchRow,
    ColumnBatch,
    MaterializedRelation,
    batches_from_rows,
    row_mode,
)


@pytest.fixture
def vectorized_on():
    """Force vectorized execution for one test, restoring the old mode."""
    old = batch_mod.set_enabled(True)
    yield
    batch_mod.set_enabled(old)


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

    def test_batch_row_view(self):
        view = BatchRow([[1, 2, 3], ["x", "y", "z"]])
        view.i = 1
        assert view[0] == 2 and view[1] == "y"
        view.i = 2
        assert view[0] == 3 and view[1] == "z"


class TestKnob:
    def test_default_follows_env(self):
        # default on, but the whole suite also runs under the
        # REPRO_VECTORIZED=0 CI leg — assert against the environment
        expected = os.environ.get("REPRO_VECTORIZED", "1") != "0"
        assert batch_mod.enabled() == expected

    def test_set_enabled_returns_previous(self):
        old = batch_mod.set_enabled(False)
        try:
            assert not batch_mod.enabled()
        finally:
            batch_mod.set_enabled(old)

    def test_row_mode_context_manager(self, vectorized_on):
        assert batch_mod.enabled()
        with row_mode():
            assert not batch_mod.enabled()
        assert batch_mod.enabled()

    def test_env_knob_disables_vectorization(self):
        # the env var is read at import time, so probe a fresh interpreter
        out = subprocess.run(
            [sys.executable, "-c",
             "from repro.relational import batch; print(batch.enabled())"],
            capture_output=True, text=True,
            env={"PYTHONPATH": "src", "REPRO_VECTORIZED": "0"},
        )
        assert out.stdout.strip() == "False"

    def test_operators_report_mode(self):
        scan = op.MaterializedScan([(1,), (2,)], [(None, "x")])
        with row_mode():
            assert not scan.uses_batches()
        assert scan.uses_batches() == batch_mod.enabled()


class TestMaterializedRelation:
    class _FakePlan:
        columns = [(None, "a"), (None, "b")]

        def __init__(self, rows):
            self._rows = rows

        def rows(self):
            return iter(self._rows)

        def batches(self):
            return batches_from_rows(iter(self._rows), 2, batch_size=2)

    def test_round_trip_both_modes(self):
        rows = [(1, "a"), (2, "b"), (3, "c")]
        for flag in (True, False):
            old = batch_mod.set_enabled(flag)
            try:
                relation = MaterializedRelation.from_plan(self._FakePlan(rows))
                assert relation.row_count() == 3
                assert list(relation.iter_rows()) == rows
                got = [
                    r for b in relation.iter_batches() for r in b.iter_rows()
                ]
                assert got == rows
            finally:
                batch_mod.set_enabled(old)


class TestRowFnFallback:
    """Operators built by hand with plain row closures (no planner batch
    kernels) must still execute vectorized via the BatchRow fallback."""

    def test_filter_project_with_row_fns(self, vectorized_on):
        source = op.MaterializedScan(
            [(i, i * 10) for i in range(7)], [(None, "a"), (None, "b")]
        )
        filtered = op.FilterOp(source, lambda row: row[0] % 2 == 0)
        project = op.ProjectOp(
            filtered, [lambda row: row[1] + 1], [(None, "c")]
        )
        assert project.uses_batches()
        assert list(project.rows()) == [(1,), (21,), (41,), (61,)]

    def test_aggregate_with_row_fns(self, vectorized_on):
        source = op.MaterializedScan(
            [(1, 5), (2, 6), (1, 7)], [(None, "g"), (None, "v")]
        )
        agg = op.AggregateOp(
            source,
            [lambda row: row[0]],
            [("sum", lambda row: row[1], False)],
            [(None, "g"), (None, "s")],
        )
        assert sorted(agg.rows()) == [(1, 12), (2, 6)]


class _SmallBlocks(op.Operator):
    """Feed fixed rows as several small blocks, one with a selection."""

    batch_native = True

    def __init__(self, rows, width, size):
        self.source_rows, self.size = rows, size
        self.columns = [(None, f"c{i}") for i in range(width)]

    def rows_impl(self):
        return iter(self.source_rows)

    def batches_impl(self):
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


class TestColumnAggregateKernel:
    """The column-loop kernel against the row executor's per-row
    accumulators: same rows, same order, same float bits."""

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
            (kind, None if p is None else (lambda row, _p=p: row[_p]), d)
            for kind, p, d in self.SPECS
        ]
        columns = [(None, f"o{i}")
                   for i in range(len(group_positions) + len(specs))]
        return op.AggregateOp(
            source,
            [lambda row, _p=p: row[_p] for p in group_positions],
            specs, columns,
        )

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("groups", [(), (0,), (0, 2)])
    def test_matches_row_accumulators_exactly(self, seed, groups):
        rows = self.rows(seed, 60)
        agg = self.aggregate(rows, groups)
        old = batch_mod.set_enabled(True)
        try:
            vectorized = list(agg.rows())
        finally:
            batch_mod.set_enabled(old)
        with row_mode():
            oracle = list(agg.rows())
        assert [repr(row) for row in vectorized] == [
            repr(row) for row in oracle
        ]

    @pytest.mark.parametrize("groups", [(), (0,)])
    def test_empty_input(self, vectorized_on, groups):
        agg = self.aggregate([], groups)
        got = list(agg.rows())
        if groups:
            assert got == []
        else:
            assert got == [
                (0, 0, 0, None, None, None, None, None, None, None, None)
            ]

    def test_unknown_kind_is_a_bind_error(self, vectorized_on):
        from repro.relational.errors import BindError

        source = _SmallBlocks([(1, 2, 3)], 3, size=7)
        agg = op.AggregateOp(
            source, [], [("median", lambda row: row[1], False)],
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
    positions, not batch sizes, so they match row mode exactly."""

    SQL = "SELECT v, COUNT(*) FROM t WHERE v < 3 GROUP BY v"

    def test_counts_identical_across_modes(self):
        database = _make_db()
        old = batch_mod.set_enabled(True)
        try:
            vec = _analyze(database, self.SQL)
            batch_mod.set_enabled(False)
            row = _analyze(database, self.SQL)
        finally:
            batch_mod.set_enabled(old)
        assert _actual_rows(vec) == _actual_rows(row)
        # a 50-row scan filtered to v<3 leaves exactly 30 selected rows
        assert 30 in _actual_rows(vec)

    def test_batches_annotation_only_when_vectorized(self):
        database = _make_db()
        old = batch_mod.set_enabled(True)
        try:
            vec = _analyze(database, self.SQL)
            batch_mod.set_enabled(False)
            row = _analyze(database, self.SQL)
        finally:
            batch_mod.set_enabled(old)
        assert re.search(r"batches=\d+", vec)
        assert not re.search(r"batches=", row)

    def test_filtered_scan_counts_survivors_only(self):
        database = _make_db()
        old = batch_mod.set_enabled(True)
        try:
            text = _analyze(database, "SELECT id FROM t WHERE v = 0")
        finally:
            batch_mod.set_enabled(old)
        # the scan emits physical blocks of 50 rows but only 10 selected
        # positions; the annotation must report the 10
        counts = _actual_rows(text)
        assert counts and all(c == 10 for c in counts)

    def test_limit_counts_are_exact(self):
        database = _make_db()
        old = batch_mod.set_enabled(True)
        try:
            text = _analyze(database, "SELECT id FROM t LIMIT 7")
        finally:
            batch_mod.set_enabled(old)
        assert 7 in _actual_rows(text)

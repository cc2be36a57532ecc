"""Direct unit tests for physical operators (below the SQL surface)."""

from repro.relational import expressions as ex
from repro.relational import operators as op


def mat(rows, names, qualifier=None):
    return op.MaterializedScan(rows, [(qualifier, n) for n in names])


def col(position):
    """Batch kernel reading one column (what the planner hands operators)."""
    return ex.column_kernel(position)


def c(position):
    """Reference to column *position* (named ``c<position>``)."""
    return ex.ColumnRef(None, f"c{position}")


def kernel(expression):
    """Batch kernel of *expression* over positionally named columns."""
    return expression.compile_batch(
        ex.CompileContext(lambda __, name: int(name[1:]))
    )


class TestHashJoin:
    def test_inner_matches(self):
        left = mat([(1, "a"), (2, "b"), (3, "c")], ["k", "v"])
        right = mat([(2, "x"), (3, "y"), (3, "z")], ["k", "w"])
        join = op.HashJoinOp(left, right, [col(0)], [col(0)])
        assert sorted(join.rows()) == [
            (2, "b", 2, "x"), (3, "c", 3, "y"), (3, "c", 3, "z"),
        ]

    def test_null_keys_never_join(self):
        left = mat([(None, "a")], ["k", "v"])
        right = mat([(None, "x")], ["k", "w"])
        join = op.HashJoinOp(left, right, [col(0)], [col(0)])
        assert list(join.rows()) == []

    def test_left_outer_pads(self):
        left = mat([(1,), (9,)], ["k"])
        right = mat([(1, "x")], ["k", "w"])
        join = op.HashJoinOp(left, right, [col(0)], [col(0)], kind="left")
        assert sorted(join.rows(), key=repr) == [
            (1, 1, "x"), (9, None, None),
        ]

    def test_residual_filters_matches(self):
        left = mat([(1, 5)], ["k", "v"])
        right = mat([(1, 3), (1, 9)], ["k", "w"])
        join = op.HashJoinOp(
            left, right, [col(0)], [col(0)],
            residual=kernel(ex.Comparison(">", c(3), c(1))),
        )
        assert list(join.rows()) == [(1, 5, 1, 9)]

    def test_unhashable_key_values_normalized(self):
        left = mat([([1, 2], "a")], ["k", "v"])
        right = mat([([1, 2], "x")], ["k", "w"])
        join = op.HashJoinOp(left, right, [col(0)], [col(0)])
        assert len(list(join.rows())) == 1


class TestIndexNLJoin:
    def _indexed(self):
        from repro.relational import Database

        database = Database()
        database.execute("CREATE TABLE u (k INTEGER, w STRING)")
        database.execute("CREATE INDEX u_k ON u (k)")
        database.execute(
            "INSERT INTO u VALUES (1, 'x'), (1, 'y'), (2, 'z'), (3, 'q')"
        )
        table = database.table("u")
        return table, table.find_index("col(k)")

    def test_residual_then_left_padding(self):
        table, index = self._indexed()
        outer = mat([(1,), (2,), (9,), (None,)], ["k"])
        join = op.IndexNLJoinOp(
            outer, table, "u", index, [col(0)], kind="left",
            residual=kernel(ex.And([
                ex.Comparison("<>", c(2), ex.Literal("x")),
                ex.Comparison("<>", c(2), ex.Literal("z")),
            ])),
        )
        assert list(join.rows()) == [
            (1, 1, "y"), (2, None, None), (9, None, None),
            (None, None, None),
        ]

    def test_rid_of_a_deleted_row_is_skipped(self):
        table, index = self._indexed()
        # tombstone (1, 'x') behind the index's back
        page = table._pool.fetch(table, 0, for_write=True)
        page[page.index((1, "x"))] = None
        outer = mat([(1,), (3,)], ["k"])
        join = op.IndexNLJoinOp(outer, table, "u", index, [col(0)])
        assert list(join.rows()) == [(1, 1, "y"), (3, 3, "q")]


class TestLateralUnnest:
    def test_emits_per_values_row(self):
        child = mat([(1, 2), (3, 4)], ["a", "b"])
        unnest = op.LateralUnnestOp(
            child, [[col(0)], [col(1)]], [("t", "val")]
        )
        assert list(unnest.rows()) == [
            (1, 2, 1), (1, 2, 2), (3, 4, 3), (3, 4, 4),
        ]

    def test_multi_column_rows(self):
        child = mat([(1, "x")], ["a", "s"])
        unnest = op.LateralUnnestOp(
            child, [[col(1), col(0)]], [("t", "l"), ("t", "v")]
        )
        assert list(unnest.rows()) == [(1, "x", "x", 1)]


class TestSetOps:
    def left_right(self):
        left = mat([(1,), (2,), (2,), (3,)], ["a"])
        right = mat([(2,), (4,)], ["a"])
        return left, right

    def test_union_dedups(self):
        """UNION is a distinct over a union-all: first occurrences, in
        order."""
        left, right = self.left_right()
        union = op.DistinctOp(op.UnionAllOp([left, right]))
        assert list(union.rows()) == [(1,), (2,), (3,), (4,)]

    def test_union_all_flattens(self):
        left, right = self.left_right()
        union = op.UnionAllOp([left, right])
        assert len(list(union.rows())) == 6

    def test_distinct_on_unhashable(self):
        child = mat([([1],), ([1],), ([2],)], ["a"])
        assert len(list(op.DistinctOp(child).rows())) == 2


class TestAggregate:
    def test_grouped(self):
        child = mat([("x", 1), ("x", 3), ("y", 5)], ["g", "v"])
        agg = op.AggregateOp(
            child, [col(0)],
            [("count_star", None, False), ("sum", col(1), False),
             ("min", col(1), False), ("max", col(1), False),
             ("avg", col(1), False)],
            [(None, "g"), (None, "c"), (None, "s"), (None, "mn"),
             (None, "mx"), (None, "av")],
        )
        assert sorted(agg.rows()) == [
            ("x", 2, 4, 1, 3, 2.0), ("y", 1, 5, 5, 5, 5.0),
        ]

    def test_global_empty_input(self):
        child = mat([], ["v"])
        agg = op.AggregateOp(
            child, [], [("count_star", None, False), ("sum", col(0), False)],
            [(None, "c"), (None, "s")],
        )
        assert list(agg.rows()) == [(0, None)]

    def test_distinct_aggregate(self):
        child = mat([(1,), (1,), (2,)], ["v"])
        agg = op.AggregateOp(
            child, [], [("count", col(0), True)], [(None, "c")]
        )
        assert list(agg.rows()) == [(2,)]

    def test_aggregates_skip_nulls(self):
        child = mat([(1,), (None,), (3,)], ["v"])
        agg = op.AggregateOp(
            child, [],
            [("count", col(0), False), ("avg", col(0), False)],
            [(None, "c"), (None, "a")],
        )
        assert list(agg.rows()) == [(2, 2.0)]


class TestSortLimit:
    def test_multi_key_sort(self):
        child = mat([(2, "b"), (1, "z"), (2, "a")], ["n", "s"])
        sort = op.SortOp(child, [col(0), col(1)], [False, True])
        assert list(sort.rows()) == [(1, "z"), (2, "b"), (2, "a")]

    def test_sort_with_nulls(self):
        child = mat([(2,), (None,), (1,)], ["n"])
        sort = op.SortOp(child, [col(0)], [False])
        assert list(sort.rows()) == [(None,), (1,), (2,)]

    def test_limit_offset(self):
        child = mat([(i,) for i in range(10)], ["n"])
        limited = op.LimitOp(child, limit=3, offset=2)
        assert list(limited.rows()) == [(2,), (3,), (4,)]

    def test_offset_only(self):
        child = mat([(i,) for i in range(4)], ["n"])
        assert list(op.LimitOp(child, None, 3).rows()) == [(3,)]


class TestResolver:
    def test_qualified_and_bare(self):
        resolver = op.make_resolver([("t", "a"), ("u", "b")])
        assert resolver("t", "a") == 0
        assert resolver(None, "b") == 1

    def test_ambiguity(self):
        import pytest

        from repro.relational.errors import BindError

        resolver = op.make_resolver([("t", "a"), ("u", "a")])
        assert resolver("u", "a") == 1
        with pytest.raises(BindError):
            resolver(None, "a")


class TestExplainPlan:
    def test_tree_rendering(self):
        child = mat([(1,)], ["a"])
        plan = op.LimitOp(op.DistinctOp(child), 1)
        text = op.explain_plan(plan)
        lines = text.splitlines()
        assert lines[0].startswith("LimitOp")
        assert lines[1].strip().startswith("DistinctOp")
        assert lines[2].strip().startswith("MaterializedScan")

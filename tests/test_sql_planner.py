"""Tests for plan shapes: index selection, pushdown, join strategies."""

import pytest

from repro.relational import Database
from repro.relational import operators as op
from repro.relational.errors import BindError
from repro.relational.planner import Planner, Runtime
from repro.relational.sql.parser import parse_statement


def plan_for(database, sql):
    statement = parse_statement(sql)
    planner = Planner(database, Runtime(database))
    return planner.plan_select_statement(statement)


def operators_in(plan):
    """Flatten the operator tree into a list of node types."""
    seen = []

    def visit(node):
        seen.append(type(node))
        for attr in ("child", "left", "right", "outer", "children"):
            value = getattr(node, attr, None)
            if isinstance(value, op.Operator):
                visit(value)
            elif isinstance(value, list):
                for item in value:
                    if isinstance(item, op.Operator):
                        visit(item)

    visit(plan)
    return seen


def make_db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER, s STRING)")
    for i in range(500):
        database.execute(
            "INSERT INTO t VALUES (?, ?, ?)", [i, i % 7, f"name{i:04d}"]
        )
    database.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
    for i in range(100):
        database.execute("INSERT INTO u VALUES (?, ?)", [i, i * 3])
    database.execute("CREATE INDEX t_v ON t (v)")
    database.execute("CREATE INDEX t_s ON t (s) USING sorted")
    database.execute("CREATE INDEX u_tid ON u (t_id)")
    return database


class TestAccessPaths:
    def test_pk_equality_uses_index(self):
        plan = plan_for(make_db(), "SELECT s FROM t WHERE id = 7")
        assert op.IndexEqScan in operators_in(plan)

    def test_secondary_equality_uses_index(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE v = 3")
        assert op.IndexEqScan in operators_in(plan)

    def test_range_uses_sorted_index(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE s > 'name0490'")
        assert op.IndexRangeScan in operators_in(plan)

    def test_prefix_like_uses_sorted_index(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE s LIKE 'name00%'")
        assert op.IndexRangeScan in operators_in(plan)

    def test_suffix_like_cannot_use_index(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE s LIKE '%42'")
        kinds = operators_in(plan)
        assert op.IndexRangeScan not in kinds
        assert op.SeqScan in kinds

    def test_is_not_null_uses_sorted_index(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE s IS NOT NULL")
        assert op.IndexRangeScan in operators_in(plan)

    def test_in_list_probes_index(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE v IN (1, 2)")
        assert op.IndexEqScan in operators_in(plan)

    def test_repeated_in_list_key_returns_row_once(self):
        database = make_db()
        plan = plan_for(database, "SELECT s FROM t WHERE id IN (7, 7)")
        assert op.IndexEqScan in operators_in(plan)
        assert database.execute(
            "SELECT s FROM t WHERE id IN (7, 7)"
        ).rows == [("name0007",)]

    def test_case_operand_has_no_index_to_match(self):
        database = make_db()
        case = "CASE WHEN id < 3 THEN s END"
        for where, count in [
            (f"{case} IN ('name0001')", 1),
            (f"{case} IS NOT NULL", 3),
            (f"{case} LIKE 'name%'", 3),
        ]:
            assert database.execute(
                f"SELECT COUNT(*) FROM t WHERE {where}"
            ).scalar() == count

    def test_unindexed_predicate_scans(self):
        database = make_db()
        plan = plan_for(database, "SELECT id FROM t WHERE v + 1 = 4")
        assert op.SeqScan in operators_in(plan)

    def test_residual_applied_with_index(self):
        database = make_db()
        result = database.execute(
            "SELECT COUNT(*) FROM t WHERE v = 3 AND id > 400"
        )
        expected = sum(1 for i in range(500) if i % 7 == 3 and i > 400)
        assert result.scalar() == expected


class TestJoins:
    def test_index_nested_loop_when_inner_indexed(self):
        database = make_db()
        plan = plan_for(
            database,
            "SELECT t.s FROM u, t WHERE u.t_id = t.id AND u.id < 5",
        )
        assert op.IndexNLJoinOp in operators_in(plan)

    def test_index_join_keeps_inner_filter(self):
        database = make_db()
        result = database.execute(
            "SELECT COUNT(*) FROM u, t WHERE u.t_id = t.id AND t.v = 0"
        )
        expected = sum(
            1 for i in range(100) if i * 3 < 500 and (i * 3) % 7 == 0
        )
        assert result.scalar() == expected

    def test_hash_join_fallback(self):
        database = Database()
        database.execute("CREATE TABLE a (x INTEGER)")
        database.execute("CREATE TABLE b (x INTEGER)")
        for i in range(20):
            database.execute("INSERT INTO a VALUES (?)", [i])
            database.execute("INSERT INTO b VALUES (?)", [i * 2])
        plan = plan_for(database, "SELECT COUNT(*) FROM a, b WHERE a.x = b.x")
        assert op.HashJoinOp in operators_in(plan)

    def test_non_equi_join_is_refused(self):
        """No operator joins without an equi pair: the planner names the
        join instead of running a cross product."""
        database = Database()
        database.execute("CREATE TABLE a (x INTEGER)")
        database.execute("CREATE TABLE b (x INTEGER)")
        database.execute("INSERT INTO a VALUES (1), (5)")
        database.execute("INSERT INTO b VALUES (2), (3)")
        with pytest.raises(BindError, match="inner join of a and b"):
            database.execute("SELECT COUNT(*) FROM a, b WHERE a.x < b.x")
        with pytest.raises(BindError, match="left join of a and b"):
            database.execute(
                "SELECT COUNT(*) FROM a LEFT JOIN b ON a.x < b.x"
            )

    def test_left_join_uses_index_probe(self):
        database = make_db()
        plan = plan_for(
            database,
            "SELECT u.id FROM u LEFT OUTER JOIN t ON u.t_id = t.id",
        )
        assert op.IndexNLJoinOp in operators_in(plan)

    def test_cte_probes_smaller_indexed_table_without_statistics(self):
        """From row counts alone, the 500-row CTE drives an index nested
        loop into the 100-row table u through its join-key index, rather
        than hash-joining from the smaller leaf (the costed rule alone)."""
        database = make_db()
        sql = (
            "WITH c AS (SELECT id AS x FROM t) "
            "SELECT COUNT(*) FROM c, u WHERE c.x = u.t_id"
        )
        kinds = operators_in(plan_for(database, sql))
        assert op.IndexNLJoinOp in kinds
        assert op.HashJoinOp not in kinds
        assert database.execute(sql).scalar() == 100

    def test_join_order_starts_from_small_side(self):
        database = make_db()
        # u(100) smaller than t(500): u should drive the index join into t
        plan = plan_for(database, "SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id")
        kinds = operators_in(plan)
        assert op.IndexNLJoinOp in kinds or op.HashJoinOp in kinds

    def test_estimates_present(self):
        plan = plan_for(make_db(), "SELECT id FROM t WHERE v = 3")
        assert plan.est_rows >= 1


class TestCorrectnessUnderOptimization:
    """The same query through different access paths must agree."""

    def test_indexed_vs_scan_agree(self):
        database = make_db()
        indexed = database.execute("SELECT id FROM t WHERE v = 5")
        brute = database.execute("SELECT id FROM t WHERE v + 0 = 5")
        assert sorted(indexed.rows) == sorted(brute.rows)

    def test_range_vs_scan_agree(self):
        database = make_db()
        indexed = database.execute("SELECT id FROM t WHERE s < 'name0100'")
        brute = database.execute("SELECT id FROM t WHERE '' || s < 'name0100'")
        assert sorted(indexed.rows) == sorted(brute.rows)

    def test_join_vs_filtered_cross_agree(self):
        database = make_db()
        joined = database.execute(
            "SELECT COUNT(*) FROM u, t WHERE u.t_id = t.id"
        ).scalar()
        assert joined == sum(1 for i in range(100) if i * 3 < 500)


# ----------------------------------------------------------------------
# planner_options accessor + validation
# ----------------------------------------------------------------------
def test_planner_options_default_empty():
    assert Database().planner_options == {}


def test_planner_option_accessor():
    database = Database(planner_options={"index_probe_cost": 50})
    assert database.planner_option("index_probe_cost", 1.0) == 50.0
    assert Database().planner_option("index_probe_cost", 1.0) == 1.0


def test_planner_options_reject_unknown_key():
    with pytest.raises(ValueError, match="unknown planner option"):
        Database(planner_options={"index_prob_cost": 1.0})
    with pytest.raises(ValueError, match="unknown planner option"):
        Database().planner_option("index_prob_cost")


@pytest.mark.parametrize("bad", ["10", True, None, -1.0, 0])
def test_planner_options_reject_bad_values(bad):
    with pytest.raises(ValueError):
        Database(planner_options={"index_probe_cost": bad})

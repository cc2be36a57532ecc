"""Tests for SQL statement parsing (structure-level)."""

import pytest

from repro.relational import expressions as ex
from repro.relational.errors import SqlSyntaxError
from repro.relational.sql import ast_nodes as ast
from repro.relational.sql.parser import parse_statement


class TestSelectParsing:
    def test_simple_select(self):
        stmt = parse_statement("SELECT a, b FROM t")
        assert isinstance(stmt, ast.SelectStatement)
        select = stmt.body
        assert len(select.items) == 2
        assert isinstance(select.from_items[0], ast.TableRef)

    def test_star(self):
        stmt = parse_statement("SELECT * FROM t")
        assert stmt.body.items[0].star

    def test_qualified_star(self):
        stmt = parse_statement("SELECT v.* FROM t v")
        item = stmt.body.items[0]
        assert item.star and item.qualifier == "v"

    def test_alias_forms(self):
        stmt = parse_statement("SELECT a AS x, b y FROM t")
        assert stmt.body.items[0].alias == "x"
        assert stmt.body.items[1].alias == "y"

    def test_where_group_having(self):
        stmt = parse_statement(
            "SELECT a, COUNT(*) FROM t WHERE b > 1 GROUP BY a"
        )
        select = stmt.body
        assert select.where is not None
        assert len(select.group_by) == 1
        with pytest.raises(SqlSyntaxError, match="HAVING is not supported"):
            parse_statement(
                "SELECT a, COUNT(*) FROM t GROUP BY a HAVING COUNT(*) > 2"
            )

    def test_distinct(self):
        assert parse_statement("SELECT DISTINCT a FROM t").body.distinct

    def test_order_limit_offset(self):
        stmt = parse_statement("SELECT a FROM t ORDER BY a DESC LIMIT 5 OFFSET 2")
        assert stmt.order_by[0].descending
        assert isinstance(stmt.limit, ex.Literal)
        assert isinstance(stmt.offset, ex.Literal)

    def test_joins(self):
        stmt = parse_statement(
            "SELECT * FROM a JOIN b ON a.x = b.x LEFT OUTER JOIN c ON b.y = c.y"
        )
        join = stmt.body.from_items[0]
        assert isinstance(join, ast.Join)
        assert join.kind == "left"
        assert join.left.kind == "inner"

    def test_unnest_values(self):
        stmt = parse_statement(
            "SELECT t.val FROM x p, TABLE(VALUES (p.a), (p.b)) AS t(val)"
        )
        unnest = stmt.body.from_items[1]
        assert isinstance(unnest, ast.UnnestValues)
        assert unnest.columns == ["val"]
        assert len(unnest.rows) == 2

    def test_tables_spelling_accepted(self):
        stmt = parse_statement(
            "SELECT t.val FROM x p, TABLES(VALUES (p.a)) AS t(val)"
        )
        assert isinstance(stmt.body.from_items[1], ast.UnnestValues)

    def test_subquery_source(self):
        for sql in (
            "SELECT * FROM (SELECT a FROM t) AS s",
            "SELECT * FROM t LEFT JOIN (SELECT a FROM u) s ON t.a = s.a",
        ):
            with pytest.raises(SqlSyntaxError, match="derived table"):
                parse_statement(sql)

    def test_set_operations(self):
        stmt = parse_statement(
            "SELECT a FROM t UNION ALL SELECT a FROM u UNION SELECT a FROM v"
        )
        top = stmt.body
        assert isinstance(top, ast.SetOp)
        assert top.op == "union"
        assert top.left.op == "union_all"
        for word in ("INTERSECT", "EXCEPT"):
            with pytest.raises(SqlSyntaxError, match=f"{word} is not"):
                parse_statement(f"SELECT a FROM t {word} SELECT a FROM u")

    def test_ctes(self):
        stmt = parse_statement(
            "WITH x AS (SELECT 1), y(a) AS (SELECT 2) SELECT * FROM y"
        )
        assert [cte.name for cte in stmt.ctes] == ["x", "y"]
        assert stmt.ctes[1].columns == ["a"]

    def test_recursive_cte_flag(self):
        stmt = parse_statement(
            "WITH RECURSIVE r(n) AS (SELECT 1 UNION ALL SELECT n+1 FROM r) "
            "SELECT * FROM r"
        )
        assert stmt.recursive

    def test_cte_with_order_and_limit(self):
        stmt = parse_statement(
            "WITH x AS (SELECT a FROM t ORDER BY a LIMIT 3) SELECT * FROM x"
        )
        inner = stmt.ctes[0].query
        assert isinstance(inner, ast.SelectStatement)
        assert inner.order_by and inner.limit is not None


class TestExpressionParsing:
    def expr(self, text):
        return parse_statement(f"SELECT {text} FROM t").body.items[0].expr

    def test_precedence(self):
        node = self.expr("1 + 2 * 3")
        assert isinstance(node, ex.BinaryOp) and node.op == "+"
        assert isinstance(node.right, ex.BinaryOp) and node.right.op == "*"

    def test_and_or_precedence(self):
        node = self.expr("a = 1 OR b = 2 AND c = 3")
        assert isinstance(node, ex.Or)
        assert isinstance(node.items[1], ex.And)

    def test_between(self):
        node = self.expr("a BETWEEN 1 AND 3")
        assert isinstance(node, ex.And)

    def test_not_between(self):
        node = self.expr("a NOT BETWEEN 1 AND 3")
        assert isinstance(node, ex.Not)

    def test_in_list(self):
        node = self.expr("a IN (1, 2, 3)")
        assert isinstance(node, ex.InList) and len(node.items) == 3

    def test_in_subquery(self):
        node = self.expr("a IN (SELECT b FROM u)")
        assert isinstance(node, ex.InSubquery)

    def test_not_in(self):
        node = self.expr("a NOT IN (1)")
        assert isinstance(node, ex.InList) and node.negated

    def test_like(self):
        node = self.expr("a LIKE 'x%'")
        assert isinstance(node, ex.Like)

    def test_is_not_null(self):
        node = self.expr("a IS NOT NULL")
        assert isinstance(node, ex.IsNull) and node.negated

    def test_case(self):
        node = self.expr("CASE WHEN a = 1 THEN 'x' ELSE 'y' END")
        assert isinstance(node, ex.CaseWhen)

    def test_cast(self):
        node = self.expr("CAST(a AS DOUBLE)")
        assert isinstance(node, ex.Cast)

    def test_count_star(self):
        node = self.expr("COUNT(*)")
        assert isinstance(node, ex.FuncCall) and node.star

    def test_count_distinct(self):
        node = self.expr("COUNT(DISTINCT a)")
        assert node.distinct

    def test_scalar_subquery(self):
        with pytest.raises(SqlSyntaxError, match="scalar subquery"):
            self.expr("(SELECT MAX(a) FROM u)")

    def test_unary_minus_folds(self):
        node = self.expr("-5")
        assert isinstance(node, ex.Literal) and node.value == -5

    def test_exists(self):
        with pytest.raises(SqlSyntaxError, match="EXISTS"):
            self.expr("EXISTS (SELECT 1 FROM u)")

    def test_params_numbered_in_order(self):
        stmt = parse_statement("SELECT ? FROM t WHERE a = ? AND b = ?")
        where = stmt.body.where
        assert where.items[0].right.index == 1
        assert where.items[1].right.index == 2


class TestDmlDdlParsing:
    def test_insert_values(self):
        stmt = parse_statement("INSERT INTO t (a, b) VALUES (1, 'x'), (2, 'y')")
        assert isinstance(stmt, ast.InsertStatement)
        assert stmt.columns == ["a", "b"]
        assert len(stmt.rows) == 2

    def test_insert_select(self):
        stmt = parse_statement("INSERT INTO t SELECT a FROM u")
        assert stmt.query is not None

    def test_update(self):
        stmt = parse_statement("UPDATE t SET a = 1, b = b + 1 WHERE c = 2")
        assert isinstance(stmt, ast.UpdateStatement)
        assert len(stmt.assignments) == 2

    def test_delete(self):
        stmt = parse_statement("DELETE FROM t WHERE a = 1")
        assert isinstance(stmt, ast.DeleteStatement)

    def test_create_table(self):
        stmt = parse_statement(
            "CREATE TABLE t (id INTEGER PRIMARY KEY, name VARCHAR(40))"
        )
        assert stmt.primary_key == "id"
        assert stmt.columns[1].type_name == "VARCHAR"

    def test_create_table_if_not_exists(self):
        stmt = parse_statement("CREATE TABLE IF NOT EXISTS t (a INT)")
        assert stmt.if_not_exists

    def test_create_index(self):
        stmt = parse_statement("CREATE UNIQUE INDEX ix ON t (a) USING sorted")
        assert stmt.unique and stmt.using == "sorted"

    def test_create_expression_index(self):
        stmt = parse_statement("CREATE INDEX ix ON t (JSON_VAL(attr, 'k'))")
        assert isinstance(stmt.expressions[0], ex.FuncCall)

    def test_drop_table(self):
        stmt = parse_statement("DROP TABLE IF EXISTS t")
        assert stmt.if_exists

    def test_trailing_semicolon(self):
        parse_statement("SELECT 1;")

    def test_trailing_garbage_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT 1 FROM t nonsense nonsense")

    def test_empty_case_rejected(self):
        with pytest.raises(SqlSyntaxError):
            parse_statement("SELECT CASE END FROM t")

"""Recursive-descent parser for the engine's SQL dialect.

The dialect is the SQL the product emits (the Gremlin translator, the
stored procedures, the analytics algorithms and the loaders) plus
``UPDATE``, ``EXPLAIN [ANALYZE]`` and ``WITH RECURSIVE``, which users
reach directly; ``tests/test_engine_surface.py`` keeps it that way.
Constructs outside it that a reader might expect (``INTERSECT`` /
``EXCEPT``, ``HAVING``, ``EXISTS``, scalar subqueries, derived tables in
FROM) are rejected with a :class:`SqlSyntaxError` that names them.
"""

from __future__ import annotations

from repro.relational import expressions as ex
from repro.relational.errors import SqlSyntaxError
from repro.relational.schema import ColumnType
from repro.relational.sql import ast_nodes as ast
from repro.relational.sql.lexer import tokenize


def parse_statement(text):
    """Parse one SQL statement (a trailing ``;`` is allowed)."""
    parser = _Parser(tokenize(text))
    statement = parser.parse_statement()
    parser.accept_op(";")
    parser.expect_eof()
    return statement


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0
        self._param_count = 0

    # ------------------------------------------------------------------
    # token helpers
    # ------------------------------------------------------------------
    @property
    def current(self):
        return self._tokens[self._pos]

    def advance(self):
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def check_keyword(self, *words):
        token = self.current
        return token.kind == "KEYWORD" and token.value in words

    def accept_keyword(self, *words):
        if self.check_keyword(*words):
            return self.advance()
        return None

    def expect_keyword(self, word):
        token = self.accept_keyword(word)
        if token is None:
            raise SqlSyntaxError(
                f"expected {word}, found {self.current.value!r}", self.current.position
            )
        return token

    def check_op(self, op):
        token = self.current
        return token.kind == "OP" and token.value == op

    def accept_op(self, op):
        if self.check_op(op):
            return self.advance()
        return None

    def expect_op(self, op):
        token = self.accept_op(op)
        if token is None:
            raise SqlSyntaxError(
                f"expected {op!r}, found {self.current.value!r}", self.current.position
            )
        return token

    def expect_ident(self):
        token = self.current
        if token.kind == "IDENT":
            return self.advance().value
        # be permissive: non-reserved-sounding keywords may name columns
        if token.kind == "KEYWORD" and token.value in (
            "KEY", "INDEX", "COUNT", "TABLE", "TABLES", "USING",
        ):
            return self.advance().value
        raise SqlSyntaxError(
            f"expected identifier, found {token.value!r}", token.position
        )

    def unsupported(self, construct):
        """Reject *construct*, which the dialect leaves out."""
        raise SqlSyntaxError(
            f"{construct} is not supported", self.current.position
        )

    def expect_eof(self):
        if self.current.kind != "EOF":
            raise SqlSyntaxError(
                f"unexpected trailing input {self.current.value!r}",
                self.current.position,
            )

    # ------------------------------------------------------------------
    # statements
    # ------------------------------------------------------------------
    def parse_statement(self):
        if self.accept_keyword("EXPLAIN"):
            analyze = self.accept_keyword("ANALYZE") is not None
            return ast.ExplainStatement(self.parse_statement(), analyze=analyze)
        if self.check_keyword("SELECT", "WITH") or self.check_op("("):
            return self.parse_select_statement()
        if self.check_keyword("INSERT"):
            return self.parse_insert()
        if self.check_keyword("UPDATE"):
            return self.parse_update()
        if self.check_keyword("DELETE"):
            return self.parse_delete()
        if self.check_keyword("CREATE"):
            return self.parse_create()
        if self.check_keyword("DROP"):
            return self.parse_drop()
        if self.accept_keyword("ANALYZE"):
            table = None
            if self.current.kind != "EOF" and not self.check_op(";"):
                table = self.expect_ident()
            return ast.AnalyzeStatement(table=table)
        raise SqlSyntaxError(
            f"cannot parse statement starting with {self.current.value!r}",
            self.current.position,
        )

    def parse_select_statement(self):
        ctes = []
        recursive = False
        if self.accept_keyword("WITH"):
            recursive = self.accept_keyword("RECURSIVE") is not None
            ctes.append(self.parse_cte())
            while self.accept_op(","):
                ctes.append(self.parse_cte())
        body = self.parse_query_expr()
        order_by = self.parse_order_by()
        limit = offset = None
        while True:
            if self.accept_keyword("LIMIT"):
                limit = self.parse_expression()
            elif self.accept_keyword("OFFSET"):
                offset = self.parse_expression()
            else:
                break
        return ast.SelectStatement(ctes, recursive, body, order_by, limit, offset)

    def parse_cte(self):
        name = self.expect_ident()
        columns = None
        if self.accept_op("("):
            columns = [self.expect_ident()]
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        self.expect_keyword("AS")
        self.expect_op("(")
        # a CTE body may carry its own ORDER BY / LIMIT / OFFSET (needed by
        # the Gremlin range pipe); parse a full statement when present
        query = self.parse_query_expr()
        if self.check_keyword("ORDER", "LIMIT", "OFFSET"):
            order_by = self.parse_order_by()
            limit = offset = None
            while True:
                if self.accept_keyword("LIMIT"):
                    limit = self.parse_expression()
                elif self.accept_keyword("OFFSET"):
                    offset = self.parse_expression()
                else:
                    break
            query = ast.SelectStatement([], False, query, order_by, limit, offset)
        self.expect_op(")")
        return ast.CommonTableExpr(name, columns, query)

    def parse_query_expr(self):
        left = self.parse_query_term()
        while True:
            if self.accept_keyword("UNION"):
                if self.accept_keyword("ALL"):
                    op = "union_all"
                else:
                    op = "union"
            elif self.check_keyword("INTERSECT", "EXCEPT"):
                self.unsupported(self.current.value)
            else:
                return left
            right = self.parse_query_term()
            left = ast.SetOp(op, left, right)

    def parse_query_term(self):
        if self.accept_op("("):
            inner = self.parse_query_expr()
            self.expect_op(")")
            return inner
        return self.parse_select_core()

    def parse_select_core(self):
        self.expect_keyword("SELECT")
        distinct = False
        if self.accept_keyword("DISTINCT"):
            distinct = True
        elif self.accept_keyword("ALL"):
            pass
        items = [self.parse_select_item()]
        while self.accept_op(","):
            items.append(self.parse_select_item())
        from_items = []
        if self.accept_keyword("FROM"):
            from_items.append(self.parse_from_item())
            while self.accept_op(","):
                from_items.append(self.parse_from_item())
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        group_by = []
        if self.accept_keyword("GROUP"):
            self.expect_keyword("BY")
            group_by.append(self.parse_expression())
            while self.accept_op(","):
                group_by.append(self.parse_expression())
        if self.check_keyword("HAVING"):
            self.unsupported("HAVING")
        return ast.Select(items, from_items, where, group_by, distinct)

    def parse_select_item(self):
        if self.accept_op("*"):
            return ast.SelectItem(star=True)
        # alias.* — lookahead for IDENT . *
        token = self.current
        if (
            token.kind == "IDENT"
            and self._tokens[self._pos + 1].kind == "OP"
            and self._tokens[self._pos + 1].value == "."
            and self._tokens[self._pos + 2].kind == "OP"
            and self._tokens[self._pos + 2].value == "*"
        ):
            qualifier = self.advance().value
            self.advance()
            self.advance()
            return ast.SelectItem(star=True, qualifier=qualifier)
        expr = self.parse_expression()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.advance().value
        return ast.SelectItem(expr=expr, alias=alias)

    def parse_from_item(self):
        left = self.parse_from_primary()
        while True:
            if self.accept_keyword("CROSS"):
                self.expect_keyword("JOIN")
                right = self.parse_from_primary()
                left = ast.Join(left, right, "cross")
            elif self.check_keyword("JOIN", "INNER"):
                self.accept_keyword("INNER")
                self.expect_keyword("JOIN")
                right = self.parse_from_primary()
                self.expect_keyword("ON")
                condition = self.parse_expression()
                left = ast.Join(left, right, "inner", condition)
            elif self.check_keyword("LEFT"):
                self.advance()
                self.accept_keyword("OUTER")
                self.expect_keyword("JOIN")
                right = self.parse_from_primary()
                self.expect_keyword("ON")
                condition = self.parse_expression()
                left = ast.Join(left, right, "left", condition)
            else:
                return left

    def parse_from_primary(self):
        if self.check_keyword("TABLE", "TABLES"):
            return self.parse_unnest_values()
        if self.check_op("("):
            self.unsupported("a derived table (subquery in FROM)")
        name = self.expect_ident()
        alias = None
        if self.accept_keyword("AS"):
            alias = self.expect_ident()
        elif self.current.kind == "IDENT":
            alias = self.advance().value
        return ast.TableRef(name, alias)

    def parse_unnest_values(self):
        self.advance()  # TABLE or TABLES
        self.expect_op("(")
        self.expect_keyword("VALUES")
        rows = [self.parse_values_row()]
        while self.accept_op(","):
            rows.append(self.parse_values_row())
        self.expect_op(")")
        self.accept_keyword("AS")
        alias = self.expect_ident()
        self.expect_op("(")
        columns = [self.expect_ident()]
        while self.accept_op(","):
            columns.append(self.expect_ident())
        self.expect_op(")")
        return ast.UnnestValues(rows, alias, columns)

    def parse_values_row(self):
        self.expect_op("(")
        exprs = [self.parse_expression()]
        while self.accept_op(","):
            exprs.append(self.parse_expression())
        self.expect_op(")")
        return exprs

    def parse_order_by(self):
        order_by = []
        if self.accept_keyword("ORDER"):
            self.expect_keyword("BY")
            while True:
                expr = self.parse_expression()
                descending = False
                if self.accept_keyword("DESC"):
                    descending = True
                else:
                    self.accept_keyword("ASC")
                order_by.append(ast.OrderItem(expr, descending))
                if not self.accept_op(","):
                    break
        return order_by

    # ------------------------------------------------------------------
    # DML / DDL
    # ------------------------------------------------------------------
    def parse_insert(self):
        self.expect_keyword("INSERT")
        self.expect_keyword("INTO")
        table = self.expect_ident()
        columns = None
        if self.accept_op("("):
            columns = [self.expect_ident()]
            while self.accept_op(","):
                columns.append(self.expect_ident())
            self.expect_op(")")
        if self.accept_keyword("VALUES"):
            rows = [self.parse_values_row()]
            while self.accept_op(","):
                rows.append(self.parse_values_row())
            return ast.InsertStatement(table, columns, rows, None)
        query = self.parse_select_statement()
        return ast.InsertStatement(table, columns, None, query)

    def parse_update(self):
        self.expect_keyword("UPDATE")
        table = self.expect_ident()
        self.expect_keyword("SET")
        assignments = []
        while True:
            column = self.expect_ident()
            self.expect_op("=")
            assignments.append((column, self.parse_expression()))
            if not self.accept_op(","):
                break
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.UpdateStatement(table, assignments, where)

    def parse_delete(self):
        self.expect_keyword("DELETE")
        self.expect_keyword("FROM")
        table = self.expect_ident()
        where = None
        if self.accept_keyword("WHERE"):
            where = self.parse_expression()
        return ast.DeleteStatement(table, where)

    def parse_create(self):
        self.expect_keyword("CREATE")
        unique = self.accept_keyword("UNIQUE") is not None
        if self.accept_keyword("TABLE"):
            if unique:
                raise SqlSyntaxError("UNIQUE applies to indexes, not tables")
            return self.parse_create_table()
        if self.accept_keyword("INDEX"):
            return self.parse_create_index(unique)
        raise SqlSyntaxError(
            f"expected TABLE or INDEX after CREATE, found {self.current.value!r}",
            self.current.position,
        )

    def parse_create_table(self):
        if_not_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("NOT")
            self.expect_keyword("EXISTS")
            if_not_exists = True
        name = self.expect_ident()
        self.expect_op("(")
        columns = []
        primary_key = None
        while True:
            if self.accept_keyword("PRIMARY"):
                self.expect_keyword("KEY")
                self.expect_op("(")
                primary_key = self.expect_ident()
                self.expect_op(")")
            else:
                col_name = self.expect_ident()
                type_name = self.parse_type_name()
                is_pk = False
                if self.accept_keyword("PRIMARY"):
                    self.expect_keyword("KEY")
                    is_pk = True
                columns.append(ast.ColumnDef(col_name, type_name, is_pk))
                if is_pk:
                    primary_key = col_name
            if not self.accept_op(","):
                break
        self.expect_op(")")
        return ast.CreateTableStatement(name, columns, primary_key, if_not_exists)

    def parse_type_name(self):
        token = self.current
        if token.kind in ("KEYWORD", "IDENT"):
            self.advance()
            type_name = token.value
            # swallow parenthesized lengths: VARCHAR(100)
            if self.accept_op("("):
                while not self.accept_op(")"):
                    self.advance()
            return type_name
        raise SqlSyntaxError(
            f"expected type name, found {token.value!r}", token.position
        )

    def parse_create_index(self, unique):
        name = self.expect_ident()
        self.expect_keyword("ON")
        table = self.expect_ident()
        self.expect_op("(")
        expressions = [self.parse_expression()]
        while self.accept_op(","):
            expressions.append(self.parse_expression())
        self.expect_op(")")
        using = "hash"
        if self.accept_keyword("USING"):
            using = self.expect_ident().lower()
            if using not in ("hash", "sorted", "btree"):
                raise SqlSyntaxError(f"unknown index method {using!r}")
            if using == "btree":
                using = "sorted"
        return ast.CreateIndexStatement(name, table, expressions, unique, using)

    def parse_drop(self):
        self.expect_keyword("DROP")
        self.expect_keyword("TABLE")
        if_exists = False
        if self.accept_keyword("IF"):
            self.expect_keyword("EXISTS")
            if_exists = True
        name = self.expect_ident()
        return ast.DropTableStatement(name, if_exists)

    # ------------------------------------------------------------------
    # expressions (precedence climbing)
    # ------------------------------------------------------------------
    def parse_expression(self):
        return self.parse_or()

    def parse_or(self):
        left = self.parse_and()
        items = [left]
        while self.accept_keyword("OR"):
            items.append(self.parse_and())
        if len(items) == 1:
            return left
        return ex.Or(items)

    def parse_and(self):
        left = self.parse_not()
        items = [left]
        while self.accept_keyword("AND"):
            items.append(self.parse_not())
        if len(items) == 1:
            return left
        return ex.And(items)

    def parse_not(self):
        if self.accept_keyword("NOT"):
            return ex.Not(self.parse_not())
        return self.parse_predicate()

    def parse_predicate(self):
        left = self.parse_additive()
        while True:
            if self.accept_keyword("IS"):
                negated = self.accept_keyword("NOT") is not None
                self.expect_keyword("NULL")
                left = ex.IsNull(left, negated)
                continue
            negated = False
            if self.check_keyword("NOT"):
                after = self._tokens[self._pos + 1]
                if after.kind == "KEYWORD" and after.value in ("LIKE", "IN", "BETWEEN"):
                    self.advance()
                    negated = True
                else:
                    return left
            if self.accept_keyword("LIKE"):
                pattern = self.parse_additive()
                left = ex.Like(left, pattern, negated)
                continue
            if self.accept_keyword("BETWEEN"):
                low = self.parse_additive()
                self.expect_keyword("AND")
                high = self.parse_additive()
                between = ex.And(
                    [ex.Comparison(">=", left, low), ex.Comparison("<=", left, high)]
                )
                left = ex.Not(between) if negated else between
                continue
            if self.accept_keyword("IN"):
                self.expect_op("(")
                if self.check_keyword("SELECT", "WITH"):
                    query = self.parse_select_statement()
                    self.expect_op(")")
                    left = ex.InSubquery(left, query, negated)
                else:
                    items = [self.parse_expression()]
                    while self.accept_op(","):
                        items.append(self.parse_expression())
                    self.expect_op(")")
                    left = ex.InList(left, items, negated)
                continue
            op = None
            for candidate in ("=", "<>", "!=", "<=", ">=", "<", ">"):
                if self.check_op(candidate):
                    op = candidate
                    break
            if op is None:
                return left
            self.advance()
            right = self.parse_additive()
            left = ex.Comparison(op, left, right)

    def parse_additive(self):
        left = self.parse_multiplicative()
        while True:
            if self.accept_op("+"):
                left = ex.BinaryOp("+", left, self.parse_multiplicative())
            elif self.accept_op("-"):
                left = ex.BinaryOp("-", left, self.parse_multiplicative())
            elif self.accept_op("||"):
                left = ex.BinaryOp("||", left, self.parse_multiplicative())
            else:
                return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while True:
            if self.accept_op("*"):
                left = ex.BinaryOp("*", left, self.parse_unary())
            elif self.accept_op("/"):
                left = ex.BinaryOp("/", left, self.parse_unary())
            elif self.accept_op("%"):
                left = ex.BinaryOp("%", left, self.parse_unary())
            else:
                return left

    def parse_unary(self):
        if self.accept_op("-"):
            operand = self.parse_unary()
            if isinstance(operand, ex.Literal) and isinstance(
                operand.value, (int, float)
            ):
                return ex.Literal(-operand.value)
            return ex.BinaryOp("-", ex.Literal(0), operand)
        if self.accept_op("+"):
            return self.parse_unary()
        return self.parse_primary()

    def parse_primary(self):
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            text = token.value
            if "." in text or "e" in text or "E" in text:
                return ex.Literal(float(text))
            return ex.Literal(int(text))
        if token.kind == "STRING":
            self.advance()
            return ex.Literal(token.value)
        if self.accept_op("?"):
            param = ex.Parameter(self._param_count)
            self._param_count += 1
            return param
        if self.accept_keyword("NULL"):
            return ex.Literal(None)
        if self.accept_keyword("TRUE"):
            return ex.Literal(True)
        if self.accept_keyword("FALSE"):
            return ex.Literal(False)
        if self.accept_keyword("CAST"):
            self.expect_op("(")
            operand = self.parse_expression()
            self.expect_keyword("AS")
            type_name = self.parse_type_name()
            self.expect_op(")")
            return ex.Cast(operand, ColumnType.from_name(type_name))
        if self.accept_keyword("CASE"):
            return self.parse_case()
        if self.check_keyword("EXISTS"):
            self.unsupported("EXISTS (subquery)")
        if self.accept_keyword("COUNT"):
            return self.parse_function_call("count")
        if self.accept_op("("):
            if self.check_keyword("SELECT", "WITH"):
                self.unsupported("a scalar subquery (SELECT ...) as a value")
            inner = self.parse_expression()
            self.expect_op(")")
            return inner
        if token.kind == "IDENT":
            name = self.advance().value
            if self.check_op("("):
                return self.parse_function_call(name)
            if self.accept_op("."):
                column = self.expect_ident()
                return ex.ColumnRef(name, column)
            return ex.ColumnRef(None, name)
        raise SqlSyntaxError(
            f"unexpected token {token.value!r} in expression", token.position
        )

    def parse_function_call(self, name):
        self.expect_op("(")
        distinct = self.accept_keyword("DISTINCT") is not None
        args = []
        star = False
        if self.accept_op("*"):
            star = True
        elif not self.check_op(")"):
            args.append(self.parse_expression())
            while self.accept_op(","):
                args.append(self.parse_expression())
        self.expect_op(")")
        call = ex.FuncCall(name, args)
        call.star = star
        call.distinct = distinct
        return call

    def parse_case(self):
        whens = []
        while self.accept_keyword("WHEN"):
            condition = self.parse_expression()
            self.expect_keyword("THEN")
            result = self.parse_expression()
            whens.append((condition, result))
        otherwise = None
        if self.accept_keyword("ELSE"):
            otherwise = self.parse_expression()
        self.expect_keyword("END")
        if not whens:
            raise SqlSyntaxError("CASE requires at least one WHEN branch")
        return ex.CaseWhen(whens, otherwise)

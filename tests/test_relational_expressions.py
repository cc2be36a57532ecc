"""Tests for the expression language: 3VL, LIKE, JSON, functions."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.relational import expressions as ex
from repro.relational.errors import BindError
from repro.relational.schema import ColumnType


def const_ctx():
    def resolver(qualifier, name):
        raise BindError("no columns")

    return ex.CompileContext(resolver, ex.default_functions())


def evaluate(expression):
    """Run *expression*'s kernel over one zero-column position."""
    return expression.compile_batch(const_ctx())([], range(1))[0]


def lit(value):
    return ex.Literal(value)


class TestComparisons:
    def test_equality(self):
        assert evaluate(ex.Comparison("=", lit(3), lit(3))) is True
        assert evaluate(ex.Comparison("=", lit(3), lit(4))) is False

    def test_numeric_cross_type_equality(self):
        assert evaluate(ex.Comparison("=", lit(3), lit(3.0))) is True

    def test_string_int_not_equal(self):
        assert evaluate(ex.Comparison("=", lit("3"), lit(3))) is False

    def test_null_propagates(self):
        assert evaluate(ex.Comparison("=", lit(None), lit(3))) is None
        assert evaluate(ex.Comparison("<", lit(None), lit(None))) is None

    def test_ordering(self):
        assert evaluate(ex.Comparison("<", lit(3), lit(4))) is True
        assert evaluate(ex.Comparison(">=", lit("b"), lit("a"))) is True

    def test_not_equal_normalization(self):
        node = ex.Comparison("!=", lit(1), lit(2))
        assert node.op == "<>"
        assert evaluate(node) is True


class TestBooleanLogic:
    def test_and_kleene(self):
        assert evaluate(ex.And([lit(True), lit(None)])) is None
        assert evaluate(ex.And([lit(False), lit(None)])) is False
        assert evaluate(ex.And([lit(True), lit(True)])) is True

    def test_or_kleene(self):
        assert evaluate(ex.Or([lit(False), lit(None)])) is None
        assert evaluate(ex.Or([lit(True), lit(None)])) is True
        assert evaluate(ex.Or([lit(False), lit(False)])) is False

    def test_not(self):
        assert evaluate(ex.Not(lit(True))) is False
        assert evaluate(ex.Not(lit(None))) is None

    def test_is_null(self):
        assert evaluate(ex.IsNull(lit(None))) is True
        assert evaluate(ex.IsNull(lit(3), negated=True)) is True


class TestArithmetic:
    def test_basics(self):
        assert evaluate(ex.BinaryOp("+", lit(2), lit(3))) == 5
        assert evaluate(ex.BinaryOp("*", lit(2.5), lit(2))) == 5.0
        assert evaluate(ex.BinaryOp("%", lit(7), lit(3))) == 1

    def test_integer_division_stays_integral(self):
        assert evaluate(ex.BinaryOp("/", lit(6), lit(3))) == 2
        assert evaluate(ex.BinaryOp("/", lit(7), lit(2))) == 3.5

    def test_division_by_zero_is_null(self):
        assert evaluate(ex.BinaryOp("/", lit(1), lit(0))) is None
        assert evaluate(ex.BinaryOp("%", lit(1), lit(0))) is None

    def test_null_propagates(self):
        assert evaluate(ex.BinaryOp("+", lit(None), lit(3))) is None

    def test_concat_strings(self):
        assert evaluate(ex.BinaryOp("||", lit("a"), lit("b"))) == "ab"

    def test_concat_appends_to_tuple(self):
        assert evaluate(ex.BinaryOp("||", lit((1, 2)), lit(3))) == (1, 2, 3)


class TestLike:
    def cases(self):
        return [
            ("abc", "abc", True),
            ("abc", "a%", True),
            ("abc", "%c", True),
            ("abc", "a_c", True),
            ("abc", "a_d", False),
            ("a.c", "a.c", True),
            ("axc", "a.c", False),  # dot is literal, not regex
            ("", "%", True),
        ]

    def test_patterns(self):
        for value, pattern, expected in self.cases():
            node = ex.Like(lit(value), lit(pattern))
            assert evaluate(node) is expected, (value, pattern)

    def test_negated(self):
        assert evaluate(ex.Like(lit("abc"), lit("z%"), negated=True)) is True

    def test_null(self):
        assert evaluate(ex.Like(lit(None), lit("a%"))) is None


class TestInList:
    def test_membership(self):
        node = ex.InList(lit(2), [lit(1), lit(2)])
        assert evaluate(node) is True

    def test_not_in_with_null_is_unknown(self):
        node = ex.InList(lit(3), [lit(1), lit(None)])
        assert evaluate(node) is None

    def test_negated(self):
        node = ex.InList(lit(3), [lit(1), lit(2)], negated=True)
        assert evaluate(node) is True


class TestFunctions:
    def test_coalesce(self):
        node = ex.FuncCall("coalesce", [lit(None), lit(None), lit(7)])
        assert evaluate(node) == 7

    def test_coalesce_all_null(self):
        assert evaluate(ex.FuncCall("coalesce", [lit(None)])) is None

    def test_json_val(self):
        doc = {"a": {"b": [10, 20]}, "x": 5}
        assert ex.json_val(doc, "x") == 5
        assert ex.json_val(doc, "a.b.1") == 20
        assert ex.json_val(doc, "missing") is None
        assert ex.json_val(doc, "x.deeper") is None
        assert ex.json_val(None, "x") is None

    def test_path_helpers(self):
        functions = ex.default_functions()
        assert functions["path_init"](5) == (5,)
        assert functions["element_at"]((1, 2, 3), 1) == 2
        assert functions["element_at"]((1,), 9) is None
        assert functions["path_prefix"]((1, 2, 3), 1) == (1, 2)
        assert functions["issimplepath"]((1, 2, 3)) == 1
        assert functions["issimplepath"]((1, 2, 1)) == 0

    def test_unknown_function_raises(self):
        with pytest.raises(BindError):
            ex.FuncCall("nosuch", []).compile_batch(const_ctx())

    def test_cast(self):
        assert evaluate(ex.Cast(lit("12"), ColumnType.INTEGER)) == 12
        assert evaluate(ex.Cast(lit("x"), ColumnType.INTEGER)) is None


class TestCase:
    def test_case_branches(self):
        node = ex.CaseWhen(
            [(lit(False), lit(1)), (lit(True), lit(2))], otherwise=lit(3)
        )
        assert evaluate(node) == 2

    def test_case_default(self):
        node = ex.CaseWhen([(lit(False), lit(1))], otherwise=lit(3))
        assert evaluate(node) == 3

    def test_case_no_default_is_null(self):
        node = ex.CaseWhen([(lit(False), lit(1))])
        assert evaluate(node) is None


class TestColumnsAndParams:
    def test_column_resolution(self):
        ctx = ex.CompileContext(lambda q, n: {"a": 0, "b": 1}[n], {})
        kernel = ex.ColumnRef(None, "b").compile_batch(ctx)
        assert kernel([[10], [20]], range(1)) == [20]

    def test_missing_parameter_raises(self):
        node = ex.Parameter(1)
        ctx = ex.CompileContext(const_ctx().resolver, {}, params=[1])
        with pytest.raises(BindError):
            node.compile_batch(ctx)

    def test_references(self):
        node = ex.And(
            [
                ex.Comparison("=", ex.ColumnRef("t", "a"), lit(1)),
                ex.IsNull(ex.ColumnRef(None, "b")),
            ]
        )
        assert node.references() == {("t", "a"), (None, "b")}


class TestFingerprints:
    def test_column_fingerprint_is_qualifier_free(self):
        assert ex.ColumnRef("t", "a").fingerprint() == ex.ColumnRef(
            None, "a"
        ).fingerprint()

    def test_func_fingerprint(self):
        node = ex.FuncCall("json_val", [ex.ColumnRef("p", "attr"), lit("k")])
        assert node.fingerprint() == "json_val(col(attr),'k')"


@given(st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), st.text()),
       st.one_of(st.none(), st.integers(), st.floats(allow_nan=False), st.text()))
def test_compare_values_total(left, right):
    """compare_values never raises and returns bool/None for any op."""
    for op in ("=", "<>", "<", "<=", ">", ">="):
        result = ex.compare_values(op, left, right)
        assert result is None or isinstance(result, bool)


class TestOneSemantics:
    """A predicate answers the same wherever the planner places it: scan
    filter, join residual, SELECT list and ORDER BY key all run the same
    kernel, whose short-circuit nodes never evaluate an operand at a
    position an earlier one decided (so ``'abc' - 1`` never runs here)."""

    OR = (
        "JSON_VAL(a.attr, 'k') = 'abc' OR JSON_VAL(a.attr, 'k') - a.id = 4"
    )
    COALESCE = "COALESCE(a.id, JSON_VAL(a.attr, 'k') - 1)"

    @pytest.fixture
    def db(self):
        from repro.relational import Database

        database = Database()
        database.execute("CREATE TABLE a (id INTEGER PRIMARY KEY, attr JSON)")
        database.execute("CREATE TABLE b (id INTEGER)")
        database.execute("INSERT INTO a VALUES (?, ?)", [1, {"k": 5}])
        database.execute("INSERT INTO a VALUES (?, ?)", [2, {"k": "abc"}])
        database.execute("INSERT INTO b VALUES (1), (2)")
        return database

    def test_or_as_scan_filter(self, db):
        sql = f"SELECT a.id FROM a WHERE {self.OR} ORDER BY a.id"
        assert db.execute(sql).rows == [(1,), (2,)]

    def test_or_as_join_residual(self, db):
        # the same predicate reading b.id (= a.id) spans both tables, so it
        # is the residual of the join that probes a's primary key
        predicate = self.OR.replace("- a.id", "- b.id")
        sql = (
            f"SELECT a.id FROM b JOIN a ON a.id = b.id AND ({predicate}) "
            "ORDER BY a.id"
        )
        plan = "\n".join(row[0] for row in db.execute("EXPLAIN " + sql).rows)
        assert "IndexNLJoin" in plan
        assert db.execute(sql).rows == [(1,), (2,)]

    def test_coalesce_in_select_list(self, db):
        sql = f"SELECT {self.COALESCE} FROM a ORDER BY a.id"
        assert db.execute(sql).rows == [(1,), (2,)]

    def test_coalesce_as_order_by_key(self, db):
        sql = f"SELECT a.id FROM a ORDER BY {self.COALESCE}"
        assert db.execute(sql).rows == [(1,), (2,)]

    def test_and_skips_positions_already_false(self, db):
        sql = (
            "SELECT a.id FROM a WHERE JSON_VAL(a.attr, 'k') = 5 "
            "AND JSON_VAL(a.attr, 'k') - 1 = 4"
        )
        assert db.execute(sql).rows == [(1,)]


_VALUES = st.one_of(st.none(), st.booleans(), st.integers(-2, 2))
_WIDTH = 3


def _column(position):
    return ex.ColumnRef(None, f"c{position}")


def _compound(children):
    several = st.lists(children, min_size=1, max_size=3)
    return st.one_of(
        several.map(ex.And),
        several.map(ex.Or),
        children.map(ex.Not),
        st.builds(ex.IsNull, children, st.booleans()),
        st.builds(
            ex.Comparison, st.sampled_from(["=", "<>", "<", ">="]),
            children, children,
        ),
        st.builds(
            ex.CaseWhen,
            st.lists(st.tuples(children, children), min_size=1, max_size=3),
            st.none() | children,
        ),
        several.map(lambda args: ex.FuncCall("coalesce", args)),
    )


_TREES = st.recursive(
    st.integers(0, _WIDTH).map(_column) | _VALUES.map(lit),
    _compound, max_leaves=8,
)


@settings(max_examples=500, deadline=None)
@given(
    _TREES,
    st.lists(st.tuples(*[_VALUES] * _WIDTH), min_size=2, max_size=12),
    st.data(),
)
def test_kernel_over_block_equals_one_position_at_a_time(tree, rows, data):
    """Narrowing to undecided positions keeps every value at its own
    position: a whole block (dense or under a selection vector) answers
    what each of its positions answers alone."""
    # the last column numbers the rows, so a value computed at the wrong
    # position shows wherever a branch returns it
    columns = [list(column) for column in zip(*rows)]
    columns.append(list(range(len(rows))))
    positions = data.draw(st.one_of(
        st.just(range(len(rows))),
        st.sets(st.integers(0, len(rows) - 1)).map(sorted),
    ))
    kernel = tree.compile_batch(
        ex.CompileContext(lambda __, name: int(name[1:]), {})
    )
    alone = [kernel(columns, [i])[0] for i in positions]
    assert [repr(v) for v in kernel(columns, positions)] == [
        repr(v) for v in alone
    ]

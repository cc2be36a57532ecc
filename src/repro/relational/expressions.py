"""Expression trees with SQL three-valued logic.

Expressions appear in ``SELECT`` lists, ``WHERE``/``HAVING`` clauses, join
conditions and index definitions.  Each node supports:

* ``compile(ctx)`` — produce a fast ``row -> value`` closure, resolving
  column references through ``ctx.resolver`` once (no per-row name lookups);
* ``compile_batch(ctx)`` — produce a vectorized ``(columns, positions) ->
  values`` closure for the batch executor: *columns* are the input batch's
  per-column lists, *positions* the live positions to evaluate (a ``range``
  when the whole batch is live), and the result is a list of values aligned
  with *positions*.  Nodes without a specialized kernel inherit a generic
  fallback that drives the row closure over each live position
  (:func:`~repro.relational.batch.row_kernel`) — correctness never
  depends on a node being vectorized;
* ``references()`` — the set of ``(qualifier, column)`` pairs it reads,
  used by the planner for pushdown and join analysis;
* ``fingerprint()`` — a canonical string used to match predicates against
  expression indexes (e.g. an index over ``JSON_VAL(attr, 'name')``).

NULL semantics follow SQL: comparisons and arithmetic with NULL yield NULL
(``None``); AND/OR use Kleene logic; WHERE treats NULL as false.  The
batch kernels implement the exact same three-valued logic elementwise.
"""

from __future__ import annotations

import math
import re

from repro.relational.batch import row_kernel
from repro.relational.errors import BindError, TypeMismatchError
from repro.relational.index import total_order_key
from repro.relational.schema import ColumnType, coerce_value


class CompileContext:
    """Everything an expression needs to compile itself.

    :param resolver: callable ``(qualifier, column) -> position`` mapping a
        column reference to its offset in the row tuple.
    :param functions: scalar function registry ``name -> callable``.
    :param subquery_executor: callable ``(plan, derive) -> derive(rows)``
        used by IN/EXISTS/scalar subqueries (installed by the planner); it
        runs *plan* at most once per execution and remembers the derived
        answer until the next one.
    :param params: the list of ``?`` values a compiled closure reads when
        it is *evaluated*, never copied at compile time: a cached plan is
        re-bound by overwriting this list in place.
    """

    def __init__(self, resolver, functions=None, subquery_executor=None,
                 params=None):
        self.resolver = resolver
        self.functions = functions or {}
        self.subquery_executor = subquery_executor
        self.params = params


class Expression:
    """Base class of all expression nodes."""

    def compile(self, ctx):
        raise NotImplementedError

    def compile_batch(self, ctx):
        """Vectorized compilation: ``(columns, positions) -> list[value]``.

        The generic fallback evaluates the row closure once per live
        position (:func:`~repro.relational.batch.row_kernel`), so stateful
        nodes (subqueries) and rarely-hot nodes stay correct without a
        dedicated kernel.  Subclasses on the hot path override this with
        elementwise loops over the input column lists.
        """
        return row_kernel(self.compile(ctx))

    def references(self):
        return set()

    def fingerprint(self):
        raise NotImplementedError(f"no fingerprint for {type(self).__name__}")

    def children(self):
        return ()

    def walk(self):
        yield self
        for child in self.children():
            yield from child.walk()


class Literal(Expression):
    def __init__(self, value):
        self.value = value

    def compile(self, ctx):
        value = self.value
        return lambda row: value

    def compile_batch(self, ctx):
        value = self.value
        return lambda columns, positions: [value] * len(positions)

    def fingerprint(self):
        return repr(self.value)

    def __repr__(self):
        return f"Literal({self.value!r})"


class Parameter(Expression):
    """A ``?`` placeholder.  Compiling checks that ``CompileContext.params``
    has a value for it; the closure reads that list each time it runs, so
    a cached plan answers for whatever binding it was last opened with.
    The AST itself is never mutated."""

    def __init__(self, index):
        self.index = index

    def compile(self, ctx):
        params = ctx.params
        index = self.index
        if params is None or index >= len(params):
            have = 0 if params is None else len(params)
            raise BindError(
                f"statement requires parameter {index + 1}, got {have}"
            )
        return lambda row: params[index]

    def compile_batch(self, ctx):
        fn = self.compile(ctx)  # validates the parameter vector
        return lambda columns, positions: [fn(None)] * len(positions)

    def fingerprint(self):
        # parameters are per-execution constants; an identity fingerprint
        # would let a plan structure leak across different bound values, so
        # refuse (callers guard fingerprint() with try/except).
        raise NotImplementedError("no fingerprint for Parameter")

    def __repr__(self):
        return f"Parameter({self.index})"


class ColumnRef(Expression):
    def __init__(self, qualifier, name):
        self.qualifier = qualifier.lower() if qualifier else None
        self.name = name.lower()

    def compile(self, ctx):
        position = ctx.resolver(self.qualifier, self.name)
        return lambda row: row[position]

    def compile_batch(self, ctx):
        position = ctx.resolver(self.qualifier, self.name)

        def evaluate(columns, positions, _position=position):
            column = columns[_position]
            if type(positions) is range:
                # whole batch live: hand back the column list itself
                # (zero-copy — batches are immutable once yielded)
                return column
            return [column[i] for i in positions]

        return evaluate

    def references(self):
        return {(self.qualifier, self.name)}

    def fingerprint(self):
        return f"col({self.name})"

    def __repr__(self):
        if self.qualifier:
            return f"ColumnRef({self.qualifier}.{self.name})"
        return f"ColumnRef({self.name})"


_NUMERIC = (int, float)


def _arith(op, left, right):
    if left is None or right is None:
        return None
    try:
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                return None
            result = left / right
            if isinstance(left, int) and isinstance(right, int) and left % right == 0:
                return left // right
            return result
        if op == "%":
            if right == 0:
                return None
            return left % right
        if op == "||":
            # sequence-valued left operand: append (path building); the
            # Gremlin translator stores traversal paths as tuples
            if isinstance(left, (list, tuple)):
                return tuple(left) + (right,)
            return _as_string(left) + _as_string(right)
    except TypeError as exc:
        raise TypeMismatchError(
            f"cannot apply {op!r} to {type(left).__name__} and {type(right).__name__}"
        ) from exc
    raise TypeMismatchError(f"unknown arithmetic operator {op!r}")


def _as_string(value):
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


class BinaryOp(Expression):
    """Arithmetic and string concatenation: ``+ - * / % ||``."""

    def __init__(self, op, left, right):
        self.op = op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def compile(self, ctx):
        op = self.op
        left = self.left.compile(ctx)
        right = self.right.compile(ctx)
        return lambda row: _arith(op, left(row), right(row))

    def compile_batch(self, ctx):
        op = self.op
        left = self.left.compile_batch(ctx)
        right = self.right.compile_batch(ctx)

        def evaluate(columns, positions):
            lefts = left(columns, positions)
            rights = right(columns, positions)
            return [_arith(op, a, b) for a, b in zip(lefts, rights)]

        return evaluate

    def references(self):
        return self.left.references() | self.right.references()

    def fingerprint(self):
        return f"({self.left.fingerprint()}{self.op}{self.right.fingerprint()})"


def compare_values(op, left, right):
    """SQL comparison with 3VL and a cross-type total order.

    Returns True/False, or ``None`` when either side is NULL.
    """
    if left is None or right is None:
        return None
    if op == "=":
        return _sql_equal(left, right)
    if op in ("<>", "!="):
        return not _sql_equal(left, right)
    left_key = total_order_key(left)
    right_key = total_order_key(right)
    if op == "<":
        return left_key < right_key
    if op == "<=":
        return left_key <= right_key
    if op == ">":
        return right_key < left_key
    if op == ">=":
        return right_key <= left_key
    raise TypeMismatchError(f"unknown comparison operator {op!r}")


def _sql_equal(left, right):
    if isinstance(left, bool) or isinstance(right, bool):
        return left is right if isinstance(left, bool) and isinstance(right, bool) else False
    if isinstance(left, _NUMERIC) and isinstance(right, _NUMERIC):
        return left == right
    if type(left) is type(right):
        return left == right
    if isinstance(left, str) != isinstance(right, str):
        return False
    return left == right


class Comparison(Expression):
    def __init__(self, op, left, right):
        self.op = "<>" if op == "!=" else op
        self.left = left
        self.right = right

    def children(self):
        return (self.left, self.right)

    def compile(self, ctx):
        op = self.op
        left = self.left.compile(ctx)
        right = self.right.compile(ctx)
        return lambda row: compare_values(op, left(row), right(row))

    def compile_batch(self, ctx):
        op = self.op
        # constant-vs-column equality is THE hot-path predicate shape
        # (``t.lbl = 'name'`` over unnested triads); specialize it so the
        # inner loop compares against a bound scalar with no dispatch.
        for value_side, const_side in (
            (self.left, self.right),
            (self.right, self.left),
        ):
            constant = _constant_getter(const_side, ctx)
            if constant is not None and op in ("=", "<>"):
                values_fn = value_side.compile_batch(ctx)
                negate = op == "<>"

                def evaluate(columns, positions, _values=values_fn,
                             _constant=constant, _negate=negate):
                    values = _values(columns, positions)
                    const = _constant()
                    if const is None:
                        return [None] * len(values)
                    out = []
                    append = out.append
                    for value in values:
                        if value is None:
                            append(None)
                        else:
                            equal = _sql_equal(value, const)
                            append((not equal) if _negate else equal)
                    return out

                return evaluate
        left = self.left.compile_batch(ctx)
        right = self.right.compile_batch(ctx)

        def evaluate(columns, positions):
            lefts = left(columns, positions)
            rights = right(columns, positions)
            return [compare_values(op, a, b) for a, b in zip(lefts, rights)]

        return evaluate

    def references(self):
        return self.left.references() | self.right.references()

    def fingerprint(self):
        return f"({self.left.fingerprint()}{self.op}{self.right.fingerprint()})"


def _constant_getter(node, ctx):
    """A zero-argument callable returning the value of *node* when it is a
    literal or a ``?`` placeholder, else ``None``.  Batch kernels call it
    once per block, so a re-bound parameter is seen without recompiling."""
    if isinstance(node, Literal):
        value = node.value
        return lambda: value
    if isinstance(node, Parameter):
        params = ctx.params
        if params is None or node.index >= len(params):
            return None  # let compile() raise the precise BindError
        index = node.index
        return lambda: params[index]
    return None


class And(Expression):
    def __init__(self, items):
        self.items = list(items)

    def children(self):
        return tuple(self.items)

    def compile(self, ctx):
        compiled = [item.compile(ctx) for item in self.items]

        def evaluate(row):
            saw_null = False
            for fn in compiled:
                value = fn(row)
                if value is None:
                    saw_null = True
                elif not value:
                    return False
            return None if saw_null else True

        return evaluate

    def compile_batch(self, ctx):
        compiled = [item.compile_batch(ctx) for item in self.items]

        def evaluate(columns, positions):
            result = [True] * len(positions)
            for fn in compiled:
                values = fn(columns, positions)
                for i, value in enumerate(values):
                    current = result[i]
                    if current is False:
                        continue
                    if value is None:
                        if current is True:
                            result[i] = None
                    elif not value:
                        result[i] = False
            return result

        return evaluate

    def references(self):
        refs = set()
        for item in self.items:
            refs |= item.references()
        return refs

    def fingerprint(self):
        return "and(" + ",".join(item.fingerprint() for item in self.items) + ")"


class Or(Expression):
    def __init__(self, items):
        self.items = list(items)

    def children(self):
        return tuple(self.items)

    def compile(self, ctx):
        compiled = [item.compile(ctx) for item in self.items]

        def evaluate(row):
            saw_null = False
            for fn in compiled:
                value = fn(row)
                if value is None:
                    saw_null = True
                elif value:
                    return True
            return None if saw_null else False

        return evaluate

    def compile_batch(self, ctx):
        compiled = [item.compile_batch(ctx) for item in self.items]

        def evaluate(columns, positions):
            result = [False] * len(positions)
            for fn in compiled:
                values = fn(columns, positions)
                for i, value in enumerate(values):
                    current = result[i]
                    if current is True:
                        continue
                    if value is None:
                        if current is False:
                            result[i] = None
                    elif value:
                        result[i] = True
            return result

        return evaluate

    def references(self):
        refs = set()
        for item in self.items:
            refs |= item.references()
        return refs

    def fingerprint(self):
        return "or(" + ",".join(item.fingerprint() for item in self.items) + ")"


class Not(Expression):
    def __init__(self, operand):
        self.operand = operand

    def children(self):
        return (self.operand,)

    def compile(self, ctx):
        operand = self.operand.compile(ctx)

        def evaluate(row):
            value = operand(row)
            if value is None:
                return None
            return not value

        return evaluate

    def compile_batch(self, ctx):
        operand = self.operand.compile_batch(ctx)

        def evaluate(columns, positions):
            return [
                None if value is None else not value
                for value in operand(columns, positions)
            ]

        return evaluate

    def references(self):
        return self.operand.references()

    def fingerprint(self):
        return f"not({self.operand.fingerprint()})"


class IsNull(Expression):
    def __init__(self, operand, negated=False):
        self.operand = operand
        self.negated = negated

    def children(self):
        return (self.operand,)

    def compile(self, ctx):
        operand = self.operand.compile(ctx)
        if self.negated:
            return lambda row: operand(row) is not None
        return lambda row: operand(row) is None

    def compile_batch(self, ctx):
        operand = self.operand.compile_batch(ctx)
        if self.negated:
            return lambda columns, positions: [
                value is not None for value in operand(columns, positions)
            ]
        return lambda columns, positions: [
            value is None for value in operand(columns, positions)
        ]

    def references(self):
        return self.operand.references()

    def fingerprint(self):
        word = "isnotnull" if self.negated else "isnull"
        return f"{word}({self.operand.fingerprint()})"


def like_to_regex(pattern):
    """Translate a SQL LIKE pattern to a compiled, anchored regex."""
    parts = []
    for char in pattern:
        if char == "%":
            parts.append(".*")
        elif char == "_":
            parts.append(".")
        else:
            parts.append(re.escape(char))
    return re.compile("^" + "".join(parts) + "$", re.DOTALL)


class Like(Expression):
    def __init__(self, operand, pattern, negated=False):
        self.operand = operand
        self.pattern = pattern
        self.negated = negated

    def children(self):
        return (self.operand, self.pattern)

    def compile(self, ctx):
        operand = self.operand.compile(ctx)
        pattern = self.pattern.compile(ctx)
        negated = self.negated
        cache = {}

        def evaluate(row):
            value = operand(row)
            pat = pattern(row)
            if value is None or pat is None:
                return None
            regex = cache.get(pat)
            if regex is None:
                regex = cache[pat] = like_to_regex(pat)
            matched = regex.match(_as_string(value)) is not None
            return (not matched) if negated else matched

        return evaluate

    def compile_batch(self, ctx):
        operand = self.operand.compile_batch(ctx)
        pattern = self.pattern.compile_batch(ctx)
        negated = self.negated
        cache = {}

        def evaluate(columns, positions):
            values = operand(columns, positions)
            patterns = pattern(columns, positions)
            out = []
            append = out.append
            for value, pat in zip(values, patterns):
                if value is None or pat is None:
                    append(None)
                    continue
                regex = cache.get(pat)
                if regex is None:
                    regex = cache[pat] = like_to_regex(pat)
                matched = regex.match(_as_string(value)) is not None
                append((not matched) if negated else matched)
            return out

        return evaluate

    def references(self):
        return self.operand.references() | self.pattern.references()

    def fingerprint(self):
        word = "notlike" if self.negated else "like"
        return f"{word}({self.operand.fingerprint()},{self.pattern.fingerprint()})"


class InList(Expression):
    def __init__(self, operand, items, negated=False):
        self.operand = operand
        self.items = list(items)
        self.negated = negated

    def children(self):
        return (self.operand, *self.items)

    def compile(self, ctx):
        operand = self.operand.compile(ctx)
        compiled = [item.compile(ctx) for item in self.items]
        negated = self.negated

        def evaluate(row):
            value = operand(row)
            if value is None:
                return None
            saw_null = False
            for fn in compiled:
                candidate = fn(row)
                if candidate is None:
                    saw_null = True
                elif compare_values("=", value, candidate):
                    return not negated
            if saw_null:
                return None
            return negated

        return evaluate

    def references(self):
        refs = self.operand.references()
        for item in self.items:
            refs |= item.references()
        return refs

    def fingerprint(self):
        inner = ",".join(item.fingerprint() for item in self.items)
        word = "notin" if self.negated else "in"
        return f"{word}({self.operand.fingerprint()},[{inner}])"


def _subquery_executor(ctx):
    executor = ctx.subquery_executor
    if executor is None:
        raise BindError("subquery used in a context without an executor")
    return executor


def _value_set(rows):
    """The non-NULL first-column values of *rows*, and whether a NULL
    was among them (``x IN (...)`` answers NULL rather than false then)."""
    values = set()
    saw_null = False
    for subrow in rows:
        if subrow[0] is None:
            saw_null = True
        else:
            values.add(subrow[0])
    return values, saw_null


def _has_rows(rows):
    return any(True for __ in rows)


def _first_value(rows):
    for row in rows:
        return row[0]
    return None


class InSubquery(Expression):
    """``x IN (SELECT ...)`` — the subquery runs lazily, once per
    execution."""

    def __init__(self, operand, plan, negated=False):
        self.operand = operand
        self.plan = plan
        self.negated = negated

    def children(self):
        return (self.operand,)

    def compile(self, ctx):
        operand = self.operand.compile(ctx)
        negated = self.negated
        executor = _subquery_executor(ctx)
        plan = self.plan

        def evaluate(row):
            values, saw_null = executor(plan, _value_set)
            value = operand(row)
            if value is None:
                return None
            if value in values:
                return not negated
            if saw_null:
                return None
            return negated

        return evaluate

    def references(self):
        return self.operand.references()


class Exists(Expression):
    """``EXISTS (SELECT ...)`` for non-correlated subqueries."""

    def __init__(self, plan, negated=False):
        self.plan = plan
        self.negated = negated

    def compile(self, ctx):
        executor = _subquery_executor(ctx)
        plan = self.plan
        negated = self.negated

        def evaluate(row):
            found = executor(plan, _has_rows)
            return (not found) if negated else found

        return evaluate


class Cast(Expression):
    def __init__(self, operand, target_type):
        self.operand = operand
        self.target_type = target_type

    def children(self):
        return (self.operand,)

    def compile(self, ctx):
        operand = self.operand.compile(ctx)
        target = self.target_type

        def evaluate(row):
            value = operand(row)
            if value is None:
                return None
            try:
                return coerce_value(value, target)
            except TypeMismatchError:
                return None

        return evaluate

    def compile_batch(self, ctx):
        operand = self.operand.compile_batch(ctx)
        target = self.target_type

        def evaluate(columns, positions):
            out = []
            append = out.append
            for value in operand(columns, positions):
                if value is None:
                    append(None)
                    continue
                try:
                    append(coerce_value(value, target))
                except TypeMismatchError:
                    append(None)
            return out

        return evaluate

    def references(self):
        return self.operand.references()

    def fingerprint(self):
        return f"cast({self.operand.fingerprint()},{self.target_type.value})"


class CaseWhen(Expression):
    def __init__(self, whens, otherwise=None):
        self.whens = list(whens)
        self.otherwise = otherwise

    def children(self):
        kids = []
        for cond, result in self.whens:
            kids.append(cond)
            kids.append(result)
        if self.otherwise is not None:
            kids.append(self.otherwise)
        return tuple(kids)

    def compile(self, ctx):
        compiled = [(cond.compile(ctx), result.compile(ctx)) for cond, result in self.whens]
        otherwise = self.otherwise.compile(ctx) if self.otherwise is not None else None

        def evaluate(row):
            for cond, result in compiled:
                if cond(row):
                    return result(row)
            if otherwise is not None:
                return otherwise(row)
            return None

        return evaluate

    def references(self):
        refs = set()
        for child in self.children():
            refs |= child.references()
        return refs


class ScalarSubquery(Expression):
    """``(SELECT ...)`` used as a scalar value: first column of first row."""

    def __init__(self, plan):
        self.plan = plan

    def compile(self, ctx):
        executor = _subquery_executor(ctx)
        plan = self.plan
        return lambda row: executor(plan, _first_value)


class FuncCall(Expression):
    """A scalar function call resolved from the database registry.

    ``star`` marks ``COUNT(*)``; ``distinct`` marks ``COUNT(DISTINCT x)`` and
    friends.  Both only make sense for aggregates and are interpreted by the
    binder.
    """

    def __init__(self, name, args, star=False, distinct=False):
        self.name = name.lower()
        self.args = list(args)
        self.star = star
        self.distinct = distinct

    def children(self):
        return tuple(self.args)

    def compile(self, ctx):
        if self.name == "coalesce":
            compiled = [arg.compile(ctx) for arg in self.args]

            def evaluate(row):
                for fn in compiled:
                    value = fn(row)
                    if value is not None:
                        return value
                return None

            return evaluate
        function = ctx.functions.get(self.name)
        if function is None:
            raise BindError(f"unknown function {self.name!r}")
        compiled = [arg.compile(ctx) for arg in self.args]
        return lambda row: function(*[fn(row) for fn in compiled])

    def compile_batch(self, ctx):
        if self.name == "coalesce":
            compiled = [arg.compile_batch(ctx) for arg in self.args]

            def evaluate(columns, positions):
                if not compiled:
                    return [None] * len(positions)
                arg_lists = [fn(columns, positions) for fn in compiled]
                out = []
                append = out.append
                for values in zip(*arg_lists):
                    for value in values:
                        if value is not None:
                            append(value)
                            break
                    else:
                        append(None)
                return out

            return evaluate
        function = ctx.functions.get(self.name)
        if function is None:
            raise BindError(f"unknown function {self.name!r}")
        compiled = [arg.compile_batch(ctx) for arg in self.args]

        def evaluate(columns, positions):
            if not compiled:
                return [function() for __ in range(len(positions))]
            arg_lists = [fn(columns, positions) for fn in compiled]
            return [function(*values) for values in zip(*arg_lists)]

        return evaluate

    def references(self):
        refs = set()
        for arg in self.args:
            refs |= arg.references()
        return refs

    def fingerprint(self):
        inner = ",".join(arg.fingerprint() for arg in self.args)
        return f"{self.name}({inner})"

    def __repr__(self):
        return f"FuncCall({self.name}, {self.args!r})"


# ----------------------------------------------------------------------
# built-in scalar functions
# ----------------------------------------------------------------------
def json_val(document, path):
    """Extract a value from a JSON document by (dotted) key path.

    Missing keys or non-object intermediates yield NULL, matching the
    permissive behaviour of DB2's JSON_VAL / SQLite's json_extract.
    """
    if document is None or path is None:
        return None
    current = document
    for part in str(path).split("."):
        if isinstance(current, dict):
            current = current.get(part)
        elif isinstance(current, list):
            try:
                current = current[int(part)]
            except (ValueError, IndexError):
                return None
        else:
            return None
        if current is None:
            return None
    return current


def _sql_upper(value):
    return value.upper() if isinstance(value, str) else value


def _sql_lower(value):
    return value.lower() if isinstance(value, str) else value


def _sql_length(value):
    if value is None:
        return None
    return len(_as_string(value))


def _sql_abs(value):
    if value is None:
        return None
    return abs(value)


def _sql_substr(value, start, length=None):
    if value is None or start is None:
        return None
    text = _as_string(value)
    begin = max(int(start) - 1, 0)
    if length is None:
        return text[begin:]
    return text[begin : begin + int(length)]


def _sql_sqrt(value):
    if value is None or value < 0:
        return None
    return math.sqrt(value)


def is_simple_path(path):
    """UDF used by the Gremlin translator: True iff *path* has no repeats."""
    if path is None:
        return None
    return 1 if len(path) == len(set(path)) else 0


def path_init(value):
    """Start a traversal path: a one-element tuple."""
    return (value,)


def element_at(sequence, index):
    """0-based element access with NULL on out-of-range / NULL input."""
    if sequence is None or index is None:
        return None
    try:
        return sequence[int(index)]
    except (IndexError, TypeError):
        return None


def path_prefix(sequence, index):
    """First ``index + 1`` elements of a path (used by the back pipe)."""
    if sequence is None or index is None:
        return None
    return tuple(sequence[: int(index) + 1])


def path_length(sequence):
    if sequence is None:
        return None
    return len(sequence)


def make_list(*values):
    """Variadic tuple constructor (used by the Gremlin select pipe)."""
    return tuple(values)


def default_functions():
    """The scalar function registry every new Database starts with."""
    return {
        "json_val": json_val,
        "upper": _sql_upper,
        "lower": _sql_lower,
        "length": _sql_length,
        "abs": _sql_abs,
        "substr": _sql_substr,
        "sqrt": _sql_sqrt,
        "issimplepath": is_simple_path,
        "path_init": path_init,
        "element_at": element_at,
        "path_prefix": path_prefix,
        "path_length": path_length,
        "make_list": make_list,
    }


AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


def substitute_parameters(expression, params):
    """Replace :class:`Parameter` nodes with Literals from *params* in place.

    Returns the (possibly replaced) expression.
    """
    if isinstance(expression, Parameter):
        if params is None or expression.index >= len(params):
            raise BindError(
                f"statement requires parameter {expression.index + 1}, "
                f"got {0 if params is None else len(params)}"
            )
        return Literal(params[expression.index])
    for attr in ("left", "right", "operand", "pattern", "otherwise"):
        child = getattr(expression, attr, None)
        if isinstance(child, Expression):
            setattr(expression, attr, substitute_parameters(child, params))
    for attr in ("items", "args"):
        children = getattr(expression, attr, None)
        if isinstance(children, list):
            for i, child in enumerate(children):
                if isinstance(child, Expression):
                    children[i] = substitute_parameters(child, params)
    whens = getattr(expression, "whens", None)
    if isinstance(whens, list):
        for i, (cond, result) in enumerate(whens):
            whens[i] = (
                substitute_parameters(cond, params),
                substitute_parameters(result, params),
            )
    return expression

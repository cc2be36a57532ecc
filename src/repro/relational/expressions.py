"""Expression trees with SQL three-valued logic.

Expressions appear in ``SELECT`` lists, ``WHERE`` clauses, join
conditions, ``ORDER BY`` keys, ``UPDATE``/``DELETE`` statements and index
definitions.  Each node supports:

* ``compile_batch(ctx)`` — the one compiler: a batch kernel ``(columns,
  positions) -> values``.  *columns* are the input block's per-column
  lists, *positions* the live positions to evaluate (a ``range`` when the
  whole block is live), and the result is a list of values aligned with
  *positions*.  Column references resolve through ``ctx.resolver`` once,
  at compile time;
* ``references()`` — the set of ``(qualifier, column)`` pairs it reads,
  used by the planner for pushdown and join analysis;
* ``fingerprint()`` — a canonical string used to match predicates against
  expression indexes (e.g. an index over ``JSON_VAL(attr, 'name')``).

NULL semantics follow SQL: comparisons and arithmetic with NULL yield NULL
(``None``); AND/OR use Kleene logic; WHERE treats NULL as false.

Short-circuit nodes evaluate an operand only at the positions that still
need it, as a row-at-a-time evaluator would: ``AND`` evaluates item *k*
only where no earlier item was false, ``OR`` only where none was true,
``CASE`` each WHEN where no earlier WHEN held and each THEN where its WHEN
did, ``COALESCE`` argument *k* only where every earlier one was NULL, and
``IN (list)`` its items only where the operand is not NULL and no earlier
item matched.  An operand that would raise on a position it never needs
(``'abc' - 1``) therefore never sees it, wherever the planner places the
expression.  While no position is decided, the operand runs on the
block's positions unchanged, so no sub-list is built.
"""

from __future__ import annotations

import re

from repro.relational.errors import BindError, TypeMismatchError
from repro.relational.index import total_order_key
from repro.relational.schema import ColumnType, coerce_value


class CompileContext:
    """Everything an expression needs to compile itself.

    :param resolver: callable ``(qualifier, column) -> position`` mapping a
        column reference to the index of its list in a block's columns.
    :param functions: scalar function registry ``name -> callable``.
    :param subquery_executor: callable ``(plan, derive) -> derive(rows)``
        used by ``IN (SELECT ...)`` (installed by the planner); it runs
        *plan* at most once per execution and remembers the derived answer
        until the next one.
    :param params: the list of ``?`` values a kernel reads when it is
        *evaluated*, never copied at compile time: a cached plan is
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

    def compile_batch(self, ctx):
        """The batch kernel ``(columns, positions) -> list[value]``."""
        raise NotImplementedError(f"no kernel for {type(self).__name__}")

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


def _run_at(kernel, columns, positions, offsets):
    """``(offset, value)`` pairs of *kernel* run at the positions at the
    ascending *offsets* into *positions* — on *positions* itself, no
    sub-list built, while the offsets still cover all of them."""
    if len(offsets) < len(positions):
        positions = [positions[j] for j in offsets]
    return zip(offsets, kernel(columns, positions))


def column_kernel(position):
    """Kernel reading the column at *position*: the column list itself
    when the whole block is live (zero-copy — blocks are immutable once
    yielded), else the values at the live positions."""

    def evaluate(columns, positions):
        column = columns[position]
        if type(positions) is range:
            return column
        return [column[i] for i in positions]

    return evaluate


class Literal(Expression):
    def __init__(self, value):
        self.value = value

    def compile_batch(self, ctx):
        value = self.value
        return lambda columns, positions: [value] * len(positions)

    def fingerprint(self):
        return repr(self.value)

    def __repr__(self):
        return f"Literal({self.value!r})"


class Parameter(Expression):
    """A ``?`` placeholder.  Compiling checks that ``CompileContext.params``
    has a value for it; the kernel reads that list each time it runs, so
    a cached plan answers for whatever binding it was last opened with.
    The AST itself is never mutated."""

    def __init__(self, index):
        self.index = index

    def compile_batch(self, ctx):
        params = ctx.params
        index = self.index
        if params is None or index >= len(params):
            have = 0 if params is None else len(params)
            raise BindError(
                f"statement requires parameter {index + 1}, got {have}"
            )
        return lambda columns, positions: [params[index]] * len(positions)

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

    def compile_batch(self, ctx):
        return column_kernel(ctx.resolver(self.qualifier, self.name))

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
            return None  # let compile_batch() raise the precise BindError
        index = node.index
        return lambda: params[index]
    return None


def _kleene(kernels, decisive):
    """Kernel of an AND (*decisive* False) or an OR (*decisive* True) of
    *kernels* in Kleene logic: item *k* runs only at the positions no
    earlier item has decided, i.e. where none returned *decisive*."""

    def evaluate(columns, positions):
        result = [not decisive] * len(positions)
        offsets = range(len(positions))
        for kernel in kernels:
            pairs = _run_at(kernel, columns, positions, offsets)
            undecided = []
            keep = undecided.append
            if decisive:
                for j, value in pairs:
                    if value:
                        result[j] = True
                    else:
                        if value is None:
                            result[j] = None
                        keep(j)
            else:
                for j, value in pairs:
                    if value:
                        keep(j)
                    elif value is None:
                        result[j] = None
                        keep(j)
                    else:
                        result[j] = False
            if not undecided:
                break
            offsets = undecided
        return result

    return evaluate


class And(Expression):
    def __init__(self, items):
        self.items = list(items)

    def children(self):
        return tuple(self.items)

    def compile_batch(self, ctx):
        return _kleene([item.compile_batch(ctx) for item in self.items], False)

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

    def compile_batch(self, ctx):
        return _kleene([item.compile_batch(ctx) for item in self.items], True)

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

    def compile_batch(self, ctx):
        operand = self.operand.compile_batch(ctx)
        items = [item.compile_batch(ctx) for item in self.items]
        negated = self.negated

        def evaluate(columns, positions):
            values = operand(columns, positions)
            result = [None] * len(positions)
            # undecided: the operand is not NULL and no item matched yet
            offsets = [j for j, value in enumerate(values) if value is not None]
            saw_null = set()
            for item in items:
                if not offsets:
                    break
                undecided = []
                for j, candidate in _run_at(item, columns, positions, offsets):
                    if candidate is None:
                        saw_null.add(j)
                        undecided.append(j)
                    elif _sql_equal(values[j], candidate):
                        result[j] = not negated
                    else:
                        undecided.append(j)
                offsets = undecided
            for j in offsets:
                if j not in saw_null:
                    result[j] = negated
            return result

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


class InSubquery(Expression):
    """``x IN (SELECT ...)`` — the subquery runs lazily, once per
    execution."""

    def __init__(self, operand, plan, negated=False):
        self.operand = operand
        self.plan = plan
        self.negated = negated

    def children(self):
        return (self.operand,)

    def compile_batch(self, ctx):
        operand = self.operand.compile_batch(ctx)
        executor = _subquery_executor(ctx)
        plan = self.plan
        negated = self.negated

        def evaluate(columns, positions):
            values, saw_null = executor(plan, _value_set)
            missing = None if saw_null else negated
            return [
                None if value is None
                else (not negated) if value in values
                else missing
                for value in operand(columns, positions)
            ]

        return evaluate

    def references(self):
        return self.operand.references()


class Cast(Expression):
    def __init__(self, operand, target_type):
        self.operand = operand
        self.target_type = target_type

    def children(self):
        return (self.operand,)

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

    def compile_batch(self, ctx):
        whens = [
            (cond.compile_batch(ctx), result.compile_batch(ctx))
            for cond, result in self.whens
        ]
        otherwise = (
            None if self.otherwise is None
            else self.otherwise.compile_batch(ctx)
        )

        def evaluate(columns, positions):
            result = [None] * len(positions)
            offsets = range(len(positions))  # where no WHEN has held yet
            for cond, then in whens:
                held, undecided = [], []
                for j, value in _run_at(cond, columns, positions, offsets):
                    (held if value else undecided).append(j)
                if held:
                    for j, value in _run_at(then, columns, positions, held):
                        result[j] = value
                if not undecided:
                    return result
                offsets = undecided
            if otherwise is not None:
                for j, value in _run_at(otherwise, columns, positions, offsets):
                    result[j] = value
            return result

        return evaluate

    def references(self):
        refs = set()
        for child in self.children():
            refs |= child.references()
        return refs


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

    def compile_batch(self, ctx):
        if self.name == "coalesce":
            compiled = [arg.compile_batch(ctx) for arg in self.args]

            def evaluate(columns, positions):
                result = [None] * len(positions)
                offsets = range(len(positions))  # every earlier arg was NULL
                for fn in compiled:
                    undecided = []
                    for j, value in _run_at(fn, columns, positions, offsets):
                        if value is None:
                            undecided.append(j)
                        else:
                            result[j] = value
                    if not undecided:
                        break
                    offsets = undecided
                return result

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


def _sql_abs(value):
    if value is None:
        return None
    return abs(value)


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


def make_list(*values):
    """Variadic tuple constructor (used by the Gremlin select pipe)."""
    return tuple(values)


def default_functions():
    """The scalar function registry every new Database starts with."""
    return {
        "json_val": json_val,
        "abs": _sql_abs,
        "issimplepath": is_simple_path,
        "path_init": path_init,
        "element_at": element_at,
        "path_prefix": path_prefix,
        "make_list": make_list,
    }


AGGREGATE_FUNCTIONS = {"count", "sum", "avg", "min", "max"}


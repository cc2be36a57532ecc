"""Parser for Gremlin-Groovy pipeline text.

Supported query shape: ``g.<start>.<pipe>.<pipe>...`` where ``<start>`` is
``V`` / ``V(key, value)`` / ``v(id)`` / ``E`` / ``e(id)``, plus anonymous
pipelines ``_()...`` inside branch/filter pipe arguments.

Pipes with complex Groovy code (arbitrary closures beyond the restricted
closure language) are rejected, mirroring the paper's stated limitation.
"""

from __future__ import annotations

from repro.gremlin import closures as cl
from repro.gremlin import pipes as p
from repro.gremlin.errors import GremlinSyntaxError, UnsupportedPipeError
from repro.gremlin.lexer import number_value, tokenize


def parse_gremlin(text):
    """Parse Gremlin text into a :class:`~repro.gremlin.pipes.GremlinQuery`."""
    parser = _Parser(tokenize(text))
    query = parser.parse_query()
    parser.expect_eof()
    return query


class _Parser:
    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0

    @property
    def current(self):
        return self._tokens[self._pos]

    def advance(self):
        token = self._tokens[self._pos]
        if token.kind != "EOF":
            self._pos += 1
        return token

    def accept_op(self, op):
        if self.current.kind == "OP" and self.current.value == op:
            return self.advance()
        return None

    def expect_op(self, op):
        token = self.accept_op(op)
        if token is None:
            raise GremlinSyntaxError(
                f"expected {op!r}, found {self.current.value!r} at "
                f"{self.current.position}"
            )
        return token

    def expect_ident(self, value=None):
        token = self.current
        if token.kind != "IDENT" or (value is not None and token.value != value):
            raise GremlinSyntaxError(
                f"expected identifier{'' if value is None else ' ' + value}, "
                f"found {token.value!r} at {token.position}"
            )
        return self.advance().value

    def expect_eof(self):
        if self.current.kind != "EOF":
            raise GremlinSyntaxError(
                f"unexpected trailing input {self.current.value!r} at "
                f"{self.current.position}"
            )

    # ------------------------------------------------------------------
    # query / pipeline
    # ------------------------------------------------------------------
    def parse_query(self):
        self.expect_ident("g")
        self.expect_op(".")
        start = self.parse_start_pipe()
        pipes = [start]
        pipes.extend(self.parse_pipe_chain())
        return p.GremlinQuery(pipes)

    def parse_anonymous_pipeline(self):
        """``_()`` followed by a pipe chain — used in branch arguments."""
        self.expect_ident("_")
        self.expect_op("(")
        self.expect_op(")")
        return self.parse_pipe_chain()

    def parse_pipe_chain(self):
        pipes = []
        while self.accept_op("."):
            pipes.append(self.parse_pipe())
        return pipes

    def parse_start_pipe(self):
        name = self.expect_ident()
        args = self.parse_call_args() if self.current.value == "(" else []
        if name in ("V", "v"):
            return self._start_vertices(name, args)
        if name in ("E", "e"):
            return self._start_edges(name, args)
        raise GremlinSyntaxError(f"unknown start pipe {name!r}")

    def _start_vertices(self, name, args):
        if not args:
            return p.StartVertices()
        if name == "V" and len(args) == 2 and isinstance(args[0], str):
            return p.StartVertices(key=args[0], value=args[1])
        return p.StartVertices(ids=_ids(args))

    def _start_edges(self, name, args):
        if not args:
            return p.StartEdges()
        if name == "E" and len(args) == 2 and isinstance(args[0], str):
            return p.StartEdges(key=args[0], value=args[1])
        return p.StartEdges(ids=_ids(args))

    # ------------------------------------------------------------------
    # individual pipes
    # ------------------------------------------------------------------
    def parse_pipe(self):
        name = self.expect_ident()
        args = []
        closures = []
        branches = None
        if self.current.kind == "OP" and self.current.value == "(":
            args, branches = self.parse_call_args_and_branches()
        while self.current.kind == "OP" and self.current.value == "{":
            closures.append(self.parse_closure())
        return self._build_pipe(name, args, closures, branches)

    def parse_call_args(self):
        args, branches = self.parse_call_args_and_branches()
        if branches:
            raise GremlinSyntaxError("anonymous pipelines not allowed here")
        return args

    def parse_call_args_and_branches(self):
        """Parse ``( ... )``: literal args and/or ``_()`` pipelines."""
        self.expect_op("(")
        args = []
        branches = []
        if not self.accept_op(")"):
            while True:
                if self.current.kind == "IDENT" and self.current.value == "_":
                    branches.append(self.parse_anonymous_pipeline())
                else:
                    args.append(self.parse_argument())
                if self.accept_op(")"):
                    break
                self.expect_op(",")
        return args, branches

    def parse_argument(self):
        """One literal / token argument: number, string, T.op, identifier."""
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            return number_value(token.value)
        if token.kind == "STRING":
            self.advance()
            return token.value
        if token.kind == "OP" and token.value == "-":
            self.advance()
            number = self.parse_argument()
            if not isinstance(number, (int, float)):
                raise GremlinSyntaxError("expected number after unary minus")
            return -number
        if token.kind == "OP" and token.value == "[":
            self.advance()
            items = []
            if not self.accept_op("]"):
                while True:
                    items.append(self.parse_argument())
                    if self.accept_op("]"):
                        break
                    self.expect_op(",")
            return items
        if token.kind == "IDENT":
            name = self.advance().value
            if name == "T" and self.accept_op("."):
                op_name = self.expect_ident()
                if op_name not in p.COMPARE_TOKENS:
                    raise GremlinSyntaxError(f"unknown comparison token T.{op_name}")
                return _CompareToken(p.COMPARE_TOKENS[op_name])
            if name == "true":
                return True
            if name == "false":
                return False
            if name == "null":
                return None
            return _VarName(name)
        raise GremlinSyntaxError(
            f"unexpected argument token {token.value!r} at {token.position}"
        )

    # ------------------------------------------------------------------
    # closures
    # ------------------------------------------------------------------
    def parse_closure(self):
        self.expect_op("{")
        body = self.parse_closure_or()
        self.expect_op("}")
        return body

    def parse_closure_or(self):
        left = self.parse_closure_and()
        while self.accept_op("||"):
            left = cl.BoolOr(left, self.parse_closure_and())
        return left

    def parse_closure_and(self):
        left = self.parse_closure_not()
        while self.accept_op("&&"):
            left = cl.BoolAnd(left, self.parse_closure_not())
        return left

    def parse_closure_not(self):
        if self.accept_op("!"):
            return cl.BoolNot(self.parse_closure_not())
        return self.parse_closure_comparison()

    def parse_closure_comparison(self):
        left = self.parse_closure_additive()
        for op in ("==", "!=", "<=", ">=", "<", ">"):
            if self.current.kind == "OP" and self.current.value == op:
                self.advance()
                right = self.parse_closure_additive()
                return cl.Compare(op, left, right)
        return left

    def parse_closure_additive(self):
        left = self.parse_closure_multiplicative()
        while True:
            if self.accept_op("+"):
                left = cl.Arith("+", left, self.parse_closure_multiplicative())
            elif self.accept_op("-"):
                left = cl.Arith("-", left, self.parse_closure_multiplicative())
            else:
                return left

    def parse_closure_multiplicative(self):
        left = self.parse_closure_unary()
        while True:
            if self.accept_op("*"):
                left = cl.Arith("*", left, self.parse_closure_unary())
            elif self.accept_op("/"):
                left = cl.Arith("/", left, self.parse_closure_unary())
            elif self.accept_op("%"):
                left = cl.Arith("%", left, self.parse_closure_unary())
            else:
                return left

    def parse_closure_unary(self):
        if self.accept_op("-"):
            operand = self.parse_closure_unary()
            if isinstance(operand, cl.Const) and isinstance(
                operand.value, (int, float)
            ):
                return cl.Const(-operand.value)
            return cl.Arith("-", cl.Const(0), operand)
        return self.parse_closure_postfix()

    def parse_closure_postfix(self):
        node = self.parse_closure_primary()
        while self.current.kind == "OP" and self.current.value == ".":
            # lookahead: `.name` (property) or `.method(arg)`
            after = self._tokens[self._pos + 1]
            if after.kind != "IDENT":
                break
            self.advance()
            name = self.advance().value
            if self.current.kind == "OP" and self.current.value == "(":
                if name not in ("contains", "startsWith", "endsWith"):
                    raise UnsupportedPipeError(
                        f"closure method {name!r} is outside the supported subset"
                    )
                self.expect_op("(")
                argument = self.parse_closure_or()
                self.expect_op(")")
                node = cl.StringMethod(name, node, argument)
            else:
                if not isinstance(node, cl.ItRef):
                    raise UnsupportedPipeError(
                        "nested property access is outside the supported subset"
                    )
                node = cl.PropRef(name)
        return node

    def parse_closure_primary(self):
        token = self.current
        if token.kind == "NUMBER":
            self.advance()
            return cl.Const(number_value(token.value))
        if token.kind == "STRING":
            self.advance()
            return cl.Const(token.value)
        if token.kind == "IDENT":
            name = self.advance().value
            if name == "it":
                return cl.ItRef()
            if name == "true":
                return cl.Const(True)
            if name == "false":
                return cl.Const(False)
            if name == "null":
                return cl.Const(None)
            raise UnsupportedPipeError(
                f"closure variable {name!r} is outside the supported subset"
            )
        if self.accept_op("("):
            inner = self.parse_closure_or()
            self.expect_op(")")
            return inner
        raise GremlinSyntaxError(
            f"unexpected token {token.value!r} in closure at {token.position}"
        )

    # ------------------------------------------------------------------
    # pipe construction
    # ------------------------------------------------------------------
    def _build_pipe(self, name, args, closures, branches):
        branches = branches or []
        if name in ("out", "both"):
            return p.Adjacent(name, tuple(_strings(args)))
        if name == "in":
            return p.Adjacent("in", tuple(_strings(args)))
        if name in ("outE", "inE", "bothE"):
            return p.IncidentEdges(name[:-1], tuple(_strings(args)))
        if name in ("outV", "inV", "bothV"):
            return p.EdgeVertex(name[:-1])
        if name == "id":
            return p.IdGetter()
        if name == "label":
            return p.LabelGetter()
        if name == "property":
            return p.PropertyGetter(_one_string(args, name))
        if name == "has":
            return self._build_has(args)
        if name == "hasNot":
            return p.HasNotPipe(_one_string(args, name))
        if name == "interval":
            if len(args) != 3:
                raise GremlinSyntaxError("interval(key, low, high) takes 3 args")
            return p.IntervalPipe(args[0], args[1], args[2])
        if name == "filter":
            if len(closures) != 1:
                raise GremlinSyntaxError("filter requires one closure")
            return p.FilterClosurePipe(closures[0])
        if name == "dedup":
            return p.DedupPipe()
        if name == "count":
            return p.CountPipe()
        if name == "range":
            if len(args) != 2:
                raise GremlinSyntaxError("range(low, high) takes 2 args")
            return p.RangePipe(int(args[0]), int(args[1]))
        if name == "path":
            return p.PathPipe()
        if name == "simplePath":
            return p.SimplePathPipe()
        if name == "cyclicPath":
            return p.CyclicPathPipe()
        if name == "order":
            return p.OrderPipe()
        if name == "back":
            if len(args) != 1:
                raise GremlinSyntaxError("back takes one argument")
            target = args[0]
            if isinstance(target, _VarName):
                target = target.name
            return p.BackPipe(target)
        if name == "select":
            return p.SelectPipe(tuple(_strings(args)))
        if name == "as":
            return p.AsPipe(_one_string(args, name))
        if name == "aggregate":
            return p.AggregatePipe(_side_effect_name(args))
        if name == "store":
            return p.StorePipe(_side_effect_name(args))
        if name == "except":
            return self._except_retain(p.ExceptPipe, args)
        if name == "retain":
            return self._except_retain(p.RetainPipe, args)
        if name == "and":
            return p.AndPipe(branches)
        if name == "or":
            return p.OrPipe(branches)
        if name == "ifThenElse":
            if len(closures) != 3:
                raise GremlinSyntaxError("ifThenElse requires three closures")
            return p.IfThenElsePipe(closures[0], closures[1], closures[2])
        if name == "copySplit":
            if not branches:
                raise GremlinSyntaxError("copySplit requires pipeline branches")
            return p.CopySplitPipe(branches)
        if name in ("exhaustMerge", "fairMerge"):
            return p.MergePipe(fair=name == "fairMerge")
        if name == "loop":
            if len(args) != 1 or len(closures) != 1:
                raise GremlinSyntaxError("loop(n){condition} expected")
            return p.LoopPipe(int(args[0]), closures[0])
        if name == "table":
            return p.TablePipe(_side_effect_name(args) if args else None)
        if name == "groupCount":
            return p.GroupCountPipe(_side_effect_name(args) if args else None)
        if name == "sideEffect":
            return p.SideEffectClosurePipe(closures[0] if closures else None)
        if name == "iterate":
            return p.IteratePipe()
        if name == "cap":
            return p.CapPipe()
        # bare `.name` Groovy property shorthand
        if not args and not closures and not branches:
            return p.PropertyGetter(name)
        raise UnsupportedPipeError(f"unsupported pipe {name!r}")

    def _build_has(self, args):
        if not args:
            raise GremlinSyntaxError("has requires at least a key")
        key = args[0]
        if not isinstance(key, str):
            raise GremlinSyntaxError("has key must be a string")
        if len(args) == 1:
            return p.HasPipe(key, exists_only=True)
        if len(args) == 2:
            return p.HasPipe(key, "==", args[1])
        if len(args) == 3 and isinstance(args[1], _CompareToken):
            return p.HasPipe(key, args[1].op, args[2])
        raise GremlinSyntaxError(f"cannot interpret has arguments {args!r}")

    @staticmethod
    def _except_retain(cls, args):
        if len(args) == 1 and isinstance(args[0], (_VarName, str)):
            name = args[0].name if isinstance(args[0], _VarName) else args[0]
            return cls(name=name)
        if len(args) == 1 and isinstance(args[0], list):
            return cls(values=tuple(args[0]))
        return cls(values=tuple(args))


class _CompareToken:
    __slots__ = ("op",)

    def __init__(self, op):
        self.op = op


class _VarName:
    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name


def _ids(args):
    """Start ids: integer literals only (a bool is not an id)."""
    for arg in args:
        if type(arg) is not int:
            shown = arg.name if isinstance(arg, _VarName) else repr(arg)
            raise GremlinSyntaxError(
                f"an element id must be an integer literal, got {shown}"
            )
    return list(args)


def _strings(args):
    out = []
    for arg in args:
        if isinstance(arg, _VarName):
            out.append(arg.name)
        elif isinstance(arg, str):
            out.append(arg)
        else:
            raise GremlinSyntaxError(f"expected string argument, got {arg!r}")
    return out


def _one_string(args, pipe_name):
    strings = _strings(args)
    if len(strings) != 1:
        raise GremlinSyntaxError(f"{pipe_name} takes exactly one string argument")
    return strings[0]


def _side_effect_name(args):
    if len(args) != 1:
        raise GremlinSyntaxError("expected one collection name")
    arg = args[0]
    if isinstance(arg, _VarName):
        return arg.name
    if isinstance(arg, str):
        return arg
    raise GremlinSyntaxError(f"expected collection name, got {arg!r}")

"""Statement-level AST produced by the SQL parser.

Expression nodes come from :mod:`repro.relational.expressions`; this module
only defines the statement / query-block shapes the binder consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class SelectItem:
    """One entry of a SELECT list.

    ``star`` is True for ``*`` / ``alias.*`` (``qualifier`` set for the
    latter); otherwise ``expr`` holds the expression and ``alias`` its
    optional output name.
    """

    expr: object = None
    alias: str | None = None
    star: bool = False
    qualifier: str | None = None


@dataclass
class TableRef:
    name: str
    alias: str | None = None


@dataclass
class UnnestValues:
    """Lateral ``TABLE(VALUES (e1), (e2), ...) AS alias(col, ...)``.

    Each element of ``rows`` is a list of expressions; the expressions may
    reference columns of FROM items to the left (lateral semantics).
    """

    rows: list
    alias: str
    columns: list


@dataclass
class Join:
    left: object
    right: object
    kind: str  # 'inner' | 'left' | 'cross'
    condition: object | None = None


@dataclass
class Select:
    items: list
    from_items: list = field(default_factory=list)
    where: object | None = None
    group_by: list = field(default_factory=list)
    distinct: bool = False


@dataclass
class SetOp:
    op: str  # 'union_all' | 'union'
    left: object
    right: object


@dataclass
class OrderItem:
    expr: object
    descending: bool = False


@dataclass
class CommonTableExpr:
    name: str
    columns: list | None
    query: object  # QueryExpr


@dataclass
class SelectStatement:
    ctes: list
    recursive: bool
    body: object  # Select or SetOp
    order_by: list = field(default_factory=list)
    limit: object | None = None
    offset: object | None = None


@dataclass
class InsertStatement:
    table: str
    columns: list | None
    rows: list | None  # list of expression lists
    query: object | None = None  # INSERT ... SELECT


@dataclass
class UpdateStatement:
    table: str
    assignments: list  # list of (column, expression)
    where: object | None = None


@dataclass
class DeleteStatement:
    table: str
    where: object | None = None


@dataclass
class ColumnDef:
    name: str
    type_name: str
    primary_key: bool = False


@dataclass
class CreateTableStatement:
    name: str
    columns: list
    primary_key: str | None = None
    if_not_exists: bool = False


@dataclass
class CreateIndexStatement:
    name: str
    table: str
    expressions: list  # indexed expressions (ColumnRef or general)
    unique: bool = False
    using: str = "hash"  # 'hash' | 'sorted'


@dataclass
class DropTableStatement:
    name: str
    if_exists: bool = False


@dataclass
class AnalyzeStatement:
    """``ANALYZE [table]`` — collect optimizer statistics.

    ``table`` is ``None`` for the bare form, which analyzes every table.
    """

    table: str | None = None


@dataclass
class ExplainStatement:
    """``EXPLAIN [ANALYZE] <statement>``.

    ``analyze`` executes the inner statement (discarding its result rows)
    and annotates the plan with actual row counts and timings.
    """

    statement: object
    analyze: bool = False

"""A small, self-contained relational database engine.

This package is the substrate the SQLGraph store runs on.  It provides:

* paged row storage behind an LRU buffer pool (:mod:`repro.relational.pages`),
* heap tables with hash / sorted / expression indexes
  (:mod:`repro.relational.table`, :mod:`repro.relational.index`),
* an expression language with SQL three-valued logic and JSON support
  (:mod:`repro.relational.expressions`),
* a SQL dialect with CTEs (including ``WITH RECURSIVE``), joins, lateral
  ``TABLE(VALUES ...)`` unnesting, set operations, aggregates and DML
  (:mod:`repro.relational.sql`),
* a cost-based planner with predicate pushdown, index selection and
  cost-ordered joins (:mod:`repro.relational.planner`), whose plans are
  cached per statement and re-opened with new parameters
  (:mod:`repro.relational.plan`),
* a :class:`~repro.relational.database.Database` facade with table-level
  reader/writer locking and undo-based transactions.

The public entry point is :class:`repro.relational.Database`::

    from repro.relational import Database

    db = Database()
    db.execute("CREATE TABLE t (a INTEGER, b STRING)")
    db.execute("INSERT INTO t VALUES (?, ?)", [1, "x"])
    rows = db.execute("SELECT a, b FROM t WHERE a = ?", [1]).rows
"""

from repro.relational.database import Database, ResultSet
from repro.relational.errors import (
    BindError,
    ConstraintError,
    EngineError,
    LockTimeoutError,
    SqlSyntaxError,
)
from repro.relational.schema import ColumnType

__all__ = [
    "BindError",
    "ColumnType",
    "ConstraintError",
    "Database",
    "EngineError",
    "LockTimeoutError",
    "ResultSet",
    "SqlSyntaxError",
]

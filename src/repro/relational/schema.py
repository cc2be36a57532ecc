"""Column types and table schemas.

Values are represented by plain Python objects at runtime:

========== =======================
SQL type   Python representation
========== =======================
INTEGER    ``int``
DOUBLE     ``float`` (or ``int``)
STRING     ``str``
BOOLEAN    ``bool``
JSON       ``dict`` / ``list`` / scalar
ANY        anything (untyped column)
========== =======================

SQL ``NULL`` is ``None`` everywhere.  Type checking is deliberately loose
(this is a dynamically typed engine in the SQLite tradition): declared types
drive coercion on insert and planner decisions, not hard runtime errors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import is_

from repro.relational.errors import BindError, TypeMismatchError


class ColumnType(enum.Enum):
    """Declared type of a table column."""

    INTEGER = "INTEGER"
    DOUBLE = "DOUBLE"
    STRING = "STRING"
    BOOLEAN = "BOOLEAN"
    JSON = "JSON"
    ANY = "ANY"

    @classmethod
    def from_name(cls, name):
        """Map a SQL type name (including common aliases) to a ColumnType."""
        normalized = name.strip().upper()
        aliases = {
            "INT": cls.INTEGER,
            "INTEGER": cls.INTEGER,
            "BIGINT": cls.INTEGER,
            "SMALLINT": cls.INTEGER,
            "DOUBLE": cls.DOUBLE,
            "FLOAT": cls.DOUBLE,
            "REAL": cls.DOUBLE,
            "DECIMAL": cls.DOUBLE,
            "STRING": cls.STRING,
            "TEXT": cls.STRING,
            "VARCHAR": cls.STRING,
            "CHAR": cls.STRING,
            "CLOB": cls.STRING,
            "BOOLEAN": cls.BOOLEAN,
            "BOOL": cls.BOOLEAN,
            "JSON": cls.JSON,
            "ANY": cls.ANY,
        }
        if normalized not in aliases:
            raise TypeMismatchError(f"unknown column type: {name!r}")
        return aliases[normalized]


def coerce_value(value, column_type):
    """Coerce *value* to *column_type* on insert/update.

    ``None`` passes through unchanged.  Coercion failures raise
    :class:`TypeMismatchError`.
    """
    if value is None or column_type in (ColumnType.ANY, ColumnType.JSON):
        return value
    try:
        if column_type is ColumnType.INTEGER:
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            if isinstance(value, float) and value.is_integer():
                return int(value)
            if isinstance(value, str):
                return int(value)
        elif column_type is ColumnType.DOUBLE:
            if isinstance(value, bool):
                return float(value)
            if isinstance(value, (int, float)):
                return value
            if isinstance(value, str):
                return float(value)
        elif column_type is ColumnType.STRING:
            if isinstance(value, str):
                return value
            if isinstance(value, (int, float, bool)):
                return str(value)
        elif column_type is ColumnType.BOOLEAN:
            if isinstance(value, bool):
                return value
            if isinstance(value, int):
                return bool(value)
    except (TypeError, ValueError) as exc:
        raise TypeMismatchError(
            f"cannot coerce {value!r} to {column_type.value}"
        ) from exc
    raise TypeMismatchError(f"cannot coerce {value!r} to {column_type.value}")


#: per declared type, the exact value types :func:`coerce_value` returns
#: unchanged — a column holding nothing else needs no per-value work
_UNCHANGED_TYPES = {
    ColumnType.INTEGER: frozenset((int, type(None))),
    ColumnType.DOUBLE: frozenset((int, float, type(None))),
    ColumnType.STRING: frozenset((str, type(None))),
    ColumnType.BOOLEAN: frozenset((bool, type(None))),
}


def coerce_column(values, column_type):
    """Coerce one column of values to *column_type* (bulk insert path).

    The common case — every value already has the declared type — is one
    C-speed type sweep that returns *values* itself.
    """
    unchanged = _UNCHANGED_TYPES.get(column_type)
    if unchanged is None or unchanged.issuperset(map(type, values)):
        return values
    return [coerce_value(value, column_type) for value in values]


@dataclass(frozen=True)
class Column:
    """A named, typed column in a table schema."""

    name: str
    type: ColumnType = ColumnType.ANY

    def __post_init__(self):
        object.__setattr__(self, "name", self.name.lower())


@dataclass
class TableSchema:
    """Schema of a heap table: ordered columns plus an optional primary key."""

    name: str
    columns: list[Column]
    primary_key: str | None = None
    _positions: dict[str, int] = field(init=False, repr=False)

    def __post_init__(self):
        self.name = self.name.lower()
        if self.primary_key is not None:
            self.primary_key = self.primary_key.lower()
        self._positions = {col.name: i for i, col in enumerate(self.columns)}
        if len(self._positions) != len(self.columns):
            raise BindError(f"duplicate column name in table {self.name!r}")
        if self.primary_key is not None and self.primary_key not in self._positions:
            raise BindError(
                f"primary key {self.primary_key!r} is not a column of {self.name!r}"
            )

    @property
    def column_names(self):
        return [col.name for col in self.columns]

    def position(self, column_name):
        """Return the ordinal position of *column_name* (case-insensitive)."""
        key = column_name.lower()
        if key not in self._positions:
            raise BindError(f"no column {column_name!r} in table {self.name!r}")
        return self._positions[key]

    def has_column(self, column_name):
        return column_name.lower() in self._positions

    def coerce_row(self, values):
        """Coerce a full row of values to the declared column types."""
        return self.coerce_rows((values,))[0]

    def coerce_rows(self, rows):
        """Coerce many full rows column by column; returns row tuples."""
        width = len(self.columns)
        for length in set(map(len, rows)):
            if length != width:
                raise BindError(
                    f"table {self.name!r} expects {width} values, got {length}"
                )
        raw = list(zip(*rows))
        columns = [
            coerce_column(values, col.type)
            for values, col in zip(raw, self.columns)
        ]
        if all(map(is_, columns, raw)):  # nothing to coerce: keep the rows
            return list(map(tuple, rows))
        return list(zip(*columns))

    # ------------------------------------------------------------------
    # durable snapshot form (see repro.relational.recovery) — plain
    # dicts/strings so the on-disk format is independent of class layout
    # ------------------------------------------------------------------
    def describe(self):
        """Portable description used by checkpoint snapshots."""
        return {
            "name": self.name,
            "columns": [(col.name, col.type.value) for col in self.columns],
            "primary_key": self.primary_key,
        }

    @classmethod
    def from_description(cls, description):
        """Rebuild a schema from :meth:`describe` output."""
        columns = [
            Column(name, ColumnType(type_name))
            for name, type_name in description["columns"]
        ]
        return cls(description["name"], columns, description["primary_key"])

"""Hash-shredded vertex attribute storage (paper Figure 2d).

Attribute keys are coloring-hashed to ``(attr_i, type_i, val_i)`` column
triads of a single relational table.  Because the table needs one uniform
VAL column type, every value is stored as a *string* and numeric predicates
pay a CAST — one of the two disadvantages the paper identifies.  The other
two are modeled faithfully as well:

* **long strings** move to an overflow table (``val`` holds ``lsid:<n>``),
* **multi-valued keys** move to a multi-value table (``val`` holds
  ``mv:<n>``),

so value lookups may need extra joins, unlike the JSON attribute table.
This is the losing arm of Figure 4 and the source of Table 3's
"Long String Table Rows" / "Multi-Value Table Rows" statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.coloring import ColoringHash, attribute_key_sets
from repro.relational.database import Database

LONG_STRING_THRESHOLD = 64


@dataclass
class HashAttributeStats:
    """Paper Table 3, "Vertex Attribute Hash Table" column."""

    hashed_keys: int = 0
    columns: int = 0
    vertices: int = 0
    spill_rows: int = 0
    long_string_rows: int = 0
    multi_value_rows: int = 0

    @property
    def bucket_size(self):
        return self.hashed_keys / self.columns if self.columns else 0.0

    @property
    def spill_percentage(self):
        if not self.vertices:
            return 0.0
        return 100.0 * self.spill_rows / self.vertices


def _type_name(value):
    if isinstance(value, bool):
        return "BOOLEAN"
    if isinstance(value, int):
        return "INTEGER"
    if isinstance(value, float):
        return "DOUBLE"
    return "STRING"


class HashAttributeTable:
    """Vertex attributes shredded into a coloring-hashed table."""

    def __init__(self, database=None, max_columns=None):
        self.database = database if database is not None else Database()
        self.max_columns = max_columns
        self.coloring = None
        self.stats = HashAttributeStats()
        self._next_overflow = 0

    # ------------------------------------------------------------------
    def load_graph(self, graph, element="vertex"):
        self.coloring = ColoringHash(self.max_columns).fit(
            attribute_key_sets(graph, element)
        )
        columns = ["vid INTEGER"]
        for i in range(self.coloring.num_columns):
            columns.append(f"attr{i} STRING")
            columns.append(f"type{i} STRING")
            columns.append(f"val{i} STRING")
        self.database.execute(f"CREATE TABLE vah ({', '.join(columns)})")
        self.database.execute(
            "CREATE TABLE vah_long (lsid STRING, val STRING)"
        )
        self.database.execute(
            "CREATE TABLE vah_multi (mvid STRING, type STRING, val STRING)"
        )
        self.database.execute("CREATE INDEX vah_vid ON vah (vid)")
        self.database.execute("CREATE INDEX vah_long_id ON vah_long (lsid)")
        self.database.execute("CREATE INDEX vah_multi_id ON vah_multi (mvid)")
        self.stats.hashed_keys = len(self.coloring)
        self.stats.columns = self.coloring.num_columns
        with self.database.scope(writes=("vah", "vah_long", "vah_multi")):
            self._load_rows(graph, element)

    def _load_rows(self, graph, element):
        table = self.database.table("vah")
        long_table = self.database.table("vah_long")
        multi_table = self.database.table("vah_multi")
        width = 1 + 3 * self.coloring.num_columns
        elements = graph.vertices() if element == "vertex" else graph.edges()
        for item in elements:
            if not item.properties:
                continue
            self.stats.vertices += 1
            rows = [self._fresh_row(item.id, width)]
            for key in sorted(item.properties):
                value = item.properties[key]
                column = self.coloring.column_for(key)
                attr_pos = 1 + 3 * column
                row = self._row_with_free_slot(rows, attr_pos, item.id, width)
                if isinstance(value, (list, tuple)):
                    marker = self._allocate("mv")
                    for entry in value:
                        multi_table.insert(
                            (marker, _type_name(entry), str(entry)),
                            coerce=False,
                        )
                        self.stats.multi_value_rows += 1
                    row[attr_pos] = key
                    row[attr_pos + 1] = "MULTI"
                    row[attr_pos + 2] = marker
                    continue
                stored = str(value)
                type_name = _type_name(value)
                if isinstance(value, str) and len(stored) > LONG_STRING_THRESHOLD:
                    marker = self._allocate("lsid")
                    long_table.insert((marker, stored), coerce=False)
                    self.stats.long_string_rows += 1
                    stored = marker
                    type_name = "LONGSTRING"
                row[attr_pos] = key
                row[attr_pos + 1] = type_name
                row[attr_pos + 2] = stored
            if len(rows) > 1:
                self.stats.spill_rows += len(rows) - 1
            for row in rows:
                table.insert(tuple(row), coerce=False)

    @staticmethod
    def _fresh_row(vid, width):
        row = [None] * width
        row[0] = vid
        return row

    @staticmethod
    def _row_with_free_slot(rows, attr_pos, vid, width):
        for row in rows:
            if row[attr_pos] is None:
                return row
        row = HashAttributeTable._fresh_row(vid, width)
        rows.append(row)
        return row

    def _allocate(self, kind):
        self._next_overflow += 1
        return f"{kind}:{self._next_overflow}"

    # ------------------------------------------------------------------
    # query builders for the Table 2 micro-benchmark
    # ------------------------------------------------------------------
    def create_value_index(self, key, sorted_index=True):
        """Index the VAL column that *key* hashes to (paper: "we added
        indexes for queried keys")."""
        column = self.coloring.column_for(key)
        method = "sorted" if sorted_index else "hash"
        safe = "".join(ch if ch.isalnum() else "_" for ch in key)
        self.database.execute(
            f"CREATE INDEX vah_val_{safe}_{column} ON vah (val{column}) "
            f"USING {method}"
        )

    def exists_sql(self, key):
        """``key is not null`` lookup."""
        column = self.coloring.column_for(key)
        return (
            f"SELECT vid FROM vah WHERE attr{column} = '{key}'"
        )

    def string_lookup_sql(self, key, like_pattern=None, equals=None):
        column = self.coloring.column_for(key)
        base = f"SELECT vid FROM vah WHERE attr{column} = '{key}'"
        if like_pattern is not None:
            escaped = like_pattern.replace("'", "''")
            return f"{base} AND val{column} LIKE '{escaped}'"
        escaped = str(equals).replace("'", "''")
        return f"{base} AND val{column} = '{escaped}'"

    def numeric_lookup_sql(self, key, op="=", value=0):
        """Numeric predicates require a CAST over the string VAL column —
        the shredded layout's structural disadvantage."""
        column = self.coloring.column_for(key)
        return (
            f"SELECT vid FROM vah WHERE attr{column} = '{key}' "
            f"AND CAST(val{column} AS DOUBLE) {op} {value}"
        )

    def storage_bytes(self):
        return self.database.storage_bytes()

"""Optimizer statistics: per-table row counts, NDV, MCVs and histograms.

``ANALYZE [table]`` walks each table once (bounded stride sample) and
records, per column and per indexed expression:

* an estimated **distinct-value count** (exact when the sample covers the
  table, scaled otherwise),
* the **null fraction**,
* the **most common values** with their frequencies (Postgres-style MCV
  list, so skewed columns — edge labels, type tags — get per-value
  equality selectivities instead of a uniform ``rows / ndv``),
* an **equi-depth histogram** (quantile boundaries over the sorted
  sample) answering range / prefix-LIKE selectivities.

Statistics are keyed by *expression fingerprint* (the planner's canonical
predicate string): plain columns under ``col(name)``, expression indexes
(``JSON_VAL(attr, 'key')``) under the index fingerprint, so attribute
predicates get real selectivities too.

Maintenance is incremental by construction: a :class:`ColumnStats`
answers *fractions*, and the planner multiplies them into the table's
**live** row count, so estimates track inserts/deletes after ANALYZE
without touching the histograms.  Statistics are invalidated by the
schema epoch (any DDL) and persisted through the WAL meta channel — they
survive checkpoints and crash recovery without a recovery-format change.

Nothing but their presence selects how the planner estimates: a table
with current statistics is costed from them, one without falls back to
the planner's fixed selectivity constants.
"""

from __future__ import annotations

import bisect
import threading

from repro.relational.index import total_order_key

#: rows the ANALYZE sample aims for (stride sampling over the heap scan)
SAMPLE_TARGET = 4096

#: number of equi-depth histogram buckets (boundary count is +1)
HISTOGRAM_BUCKETS = 32

#: most-common-value slots kept per column
MCV_SLOTS = 8

#: meta key the registry persists under (see Database.put_meta)
META_STATS_KEY = "table_stats"

def _is_composite(fingerprint):
    """True for multi-expression index fingerprints.

    Composite indexes join their member fingerprints with top-level
    commas (``col(a),col(b)``); commas *inside* parentheses belong to a
    single expression (``json_val(col(attr),'key')``) and don't count.
    """
    depth = 0
    for char in fingerprint:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        elif char == "," and depth == 0:
            return True
    return False


def _hashable(value):
    """A dict key for *value* (lists and other unhashables via repr)."""
    try:
        hash(value)
    except TypeError:
        return repr(value)
    return value


class ColumnStats:
    """Distribution summary of one column (or indexed expression).

    All selectivity answers are fractions of the table's rows; the caller
    multiplies them into the current live row count, which is what makes
    the estimates track post-ANALYZE inserts and deletes.
    """

    __slots__ = (
        "ndv", "null_frac", "mcvs", "bounds", "sample_size",
        "_mcv_map", "_bound_keys",
    )

    def __init__(self, ndv, null_frac, mcvs, bounds, sample_size):
        self.ndv = ndv
        self.null_frac = null_frac
        self.mcvs = mcvs  # list of (value, fraction), most common first
        self.bounds = bounds  # equi-depth histogram boundaries (sorted)
        self.sample_size = sample_size
        self._mcv_map = {_hashable(value): frac for value, frac in mcvs}
        self._bound_keys = [total_order_key(b) for b in bounds]

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, values, row_count):
        """Summarize *values* (one sampled value per row, may hold None)."""
        sample_size = len(values)
        if sample_size == 0:
            return cls(1, 0.0, [], [], 0)
        non_null = [value for value in values if value is not None]
        null_frac = 1.0 - len(non_null) / sample_size

        counts = {}
        originals = {}
        for value in non_null:
            key = _hashable(value)
            counts[key] = counts.get(key, 0) + 1
            if key not in originals:
                originals[key] = value
        distinct = len(counts)
        if sample_size >= row_count:
            ndv = distinct
        elif distinct < sample_size / 2:
            # most values repeat inside the sample: the value set is
            # probably small and (nearly) fully observed
            ndv = distinct
        else:
            ndv = min(row_count, int(distinct * row_count / sample_size))
        ndv = max(ndv, 1)

        ranked = sorted(
            counts.items(),
            key=lambda item: (-item[1], repr(item[0])),
        )
        mcvs = [
            (originals[key], count / sample_size)
            for key, count in ranked[:MCV_SLOTS]
            if count > 1 or distinct <= MCV_SLOTS
        ]

        bounds = []
        if non_null:
            ordered = sorted(non_null, key=total_order_key)
            top = len(ordered) - 1
            bounds = [
                ordered[(i * top) // HISTOGRAM_BUCKETS]
                for i in range(HISTOGRAM_BUCKETS + 1)
            ]
        return cls(ndv, null_frac, mcvs, bounds, sample_size)

    # ------------------------------------------------------------------
    # selectivities (fractions of table rows)
    # ------------------------------------------------------------------
    def eq_selectivity(self, value):
        if value is None:
            return 0.0  # `= NULL` never matches
        frac = self._mcv_map.get(_hashable(value))
        if frac is not None:
            return frac
        rest = max(0.0, 1.0 - self.null_frac - sum(self._mcv_map.values()))
        rest_ndv = max(self.ndv - len(self._mcv_map), 1)
        return rest / rest_ndv

    def ne_selectivity(self, value):
        return max(0.0, 1.0 - self.null_frac - self.eq_selectivity(value))

    def in_list_selectivity(self, values):
        total = sum(self.eq_selectivity(value) for value in values)
        return min(total, 1.0)

    def _frac_below(self, value, include_equal):
        """Fraction of non-null values below (or equal to) *value*."""
        if not self._bound_keys:
            return 0.0
        key = total_order_key(value)
        if include_equal:
            i = bisect.bisect_right(self._bound_keys, key)
        else:
            i = bisect.bisect_left(self._bound_keys, key)
        buckets = len(self._bound_keys) - 1
        if buckets <= 0:
            return 1.0 if i > 0 else 0.0
        return min(1.0, max(0.0, (i - 1) / buckets))

    def range_selectivity(self, low, high, low_inclusive=True,
                          high_inclusive=True):
        """Fraction of rows with *low* .. *high* (either bound optional)."""
        if not self.bounds:
            return 0.0
        f_high = (
            1.0 if high is None
            else self._frac_below(high, include_equal=high_inclusive)
        )
        f_low = (
            0.0 if low is None
            else self._frac_below(low, include_equal=not low_inclusive)
        )
        span = max(0.0, f_high - f_low)
        return span * (1.0 - self.null_frac)

    def like_prefix_selectivity(self, prefix):
        """Fraction of rows whose value starts with *prefix*."""
        return self.range_selectivity(prefix, prefix + "￿")

    def not_null_selectivity(self):
        return 1.0 - self.null_frac

    def null_selectivity(self):
        return self.null_frac

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self):
        return {
            "ndv": self.ndv,
            "null_frac": self.null_frac,
            "mcvs": list(self.mcvs),
            "bounds": list(self.bounds),
            "sample_size": self.sample_size,
        }

    @classmethod
    def from_dict(cls, payload):
        return cls(
            payload["ndv"], payload["null_frac"],
            [tuple(pair) for pair in payload["mcvs"]],
            list(payload["bounds"]), payload["sample_size"],
        )


class TableStats:
    """One table's ANALYZE result, keyed by expression fingerprint."""

    __slots__ = (
        "table_name", "row_count", "page_count", "sample_size",
        "schema_epoch", "columns",
    )

    def __init__(self, table_name, row_count, page_count, sample_size,
                 schema_epoch, columns):
        self.table_name = table_name
        self.row_count = row_count
        self.page_count = page_count
        self.sample_size = sample_size
        self.schema_epoch = schema_epoch
        self.columns = columns  # fingerprint -> ColumnStats

    @classmethod
    def collect(cls, table, schema_epoch):
        """One-pass stride sample of *table* → per-fingerprint summaries."""
        row_count = table.live_rows
        stride = max(1, row_count // SAMPLE_TARGET)
        sample = []
        for position, row in enumerate(table.scan_rows()):
            if position % stride == 0:
                sample.append(row)

        # plain columns under the planner's qualifier-free fingerprint
        targets = [
            (f"col({name})", position, None)
            for position, name in enumerate(table.schema.column_names)
        ]
        covered = {fingerprint for fingerprint, __, __fn in targets}
        # expression indexes (JSON_VAL attribute lookups): evaluate the
        # index key function over the sample; composite fingerprints never
        # match a single predicate, so they are skipped
        for index in table.indexes.values():
            fingerprint = index.fingerprint
            if fingerprint in covered or _is_composite(fingerprint):
                continue
            covered.add(fingerprint)
            targets.append((fingerprint, None, index.key_function))

        columns = {}
        for fingerprint, position, key_fn in targets:
            if key_fn is None:
                values = [row[position] for row in sample]
            else:
                values = []
                for row in sample:
                    try:
                        values.append(key_fn(row))
                    except Exception:  # arbitrary index expressions may reject sampled rows; skip the value, keep analyzing
                        values.append(None)
            columns[fingerprint] = ColumnStats.build(values, row_count)
        return cls(
            table.name, row_count, table.page_count, len(sample),
            schema_epoch, columns,
        )

    def column(self, fingerprint):
        """The :class:`ColumnStats` for *fingerprint*, or ``None``."""
        if fingerprint is None:
            return None
        return self.columns.get(fingerprint)

    def ndv_map(self):
        """``{fingerprint: distinct values}`` for the plan cost interface."""
        return {
            fingerprint: stats.ndv
            for fingerprint, stats in self.columns.items()
        }

    def to_dict(self):
        return {
            "table_name": self.table_name,
            "row_count": self.row_count,
            "page_count": self.page_count,
            "sample_size": self.sample_size,
            "schema_epoch": self.schema_epoch,
            "columns": {
                fingerprint: stats.to_dict()
                for fingerprint, stats in self.columns.items()
            },
        }

    @classmethod
    def from_dict(cls, payload):
        """The inverse of :meth:`to_dict`; keys it does not read, such as
        the mutation watermarks older releases persisted, are ignored."""
        return cls(
            payload["table_name"], payload["row_count"],
            payload["page_count"], payload["sample_size"],
            payload["schema_epoch"],
            {
                fingerprint: ColumnStats.from_dict(column)
                for fingerprint, column in payload["columns"].items()
            },
        )


class StatisticsRegistry:
    """All ANALYZE results of one database.

    Planner threads read entries while writer threads run ANALYZE or DDL,
    so the table map is guarded; :class:`TableStats` entries themselves
    are immutable after construction and safe to read lock-free once
    fetched.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._tables = {}  # guarded-by: _lock

    def analyze(self, table, schema_epoch):
        """Collect fresh statistics for *table* and install them."""
        entry = TableStats.collect(table, schema_epoch)
        with self._lock:
            self._tables[table.name] = entry
        return entry

    def get(self, table_name, schema_epoch=None):
        """The current :class:`TableStats`, or ``None`` when missing or
        invalidated by a schema change since ANALYZE."""
        with self._lock:
            entry = self._tables.get(table_name)
        if entry is None:
            return None
        if schema_epoch is not None and entry.schema_epoch != schema_epoch:
            return None
        return entry

    def forget(self, table_name):
        """Drop statistics for a table (DROP TABLE)."""
        with self._lock:
            self._tables.pop(table_name, None)

    def clear(self):
        with self._lock:
            self._tables.clear()

    def analyzed_tables(self):
        with self._lock:
            return sorted(self._tables)

    def snapshot(self):
        """JSON-able per-table summary for :stats / server introspection."""
        with self._lock:
            entries = list(self._tables.values())
        return {
            entry.table_name: {
                "row_count": entry.row_count,
                "sample_size": entry.sample_size,
                "columns": len(entry.columns),
                "schema_epoch": entry.schema_epoch,
            }
            for entry in entries
        }

    # ------------------------------------------------------------------
    # persistence (WAL meta channel)
    # ------------------------------------------------------------------
    def to_meta(self):
        """Serializable payload for ``Database.put_meta``."""
        with self._lock:
            entries = list(self._tables.values())
        return {entry.table_name: entry.to_dict() for entry in entries}

    def load_meta(self, database, payload):
        """Install persisted statistics, validated against the catalog.

        Recovery replays DDL and bumps the schema epoch along the way, so
        entries are restamped with the *current* epoch after structural
        validation: the table must still exist and each plain-column
        fingerprint must still name a live column (expression fingerprints
        must still have a matching index).  Anything stale is dropped.
        """
        loaded = {}
        for table_name, table_payload in (payload or {}).items():
            if not database.catalog.has_table(table_name):
                continue
            table = database.catalog.get_table(table_name)
            try:
                entry = TableStats.from_dict(table_payload)
            except (KeyError, TypeError):
                continue
            valid_fingerprints = {
                f"col({name})" for name in table.schema.column_names
            } | {index.fingerprint for index in table.indexes.values()}
            entry.columns = {
                fingerprint: stats
                for fingerprint, stats in entry.columns.items()
                if fingerprint in valid_fingerprints
            }
            entry.schema_epoch = database.schema_epoch
            loaded[table_name] = entry
        with self._lock:
            self._tables.update(loaded)
        return sorted(loaded)

"""Secondary indexes: hash (equality), sorted (range) and expression indexes.

Index keys are computed by a *key function* over the full row tuple.  For a
plain column index the key function projects one column; for an expression
index (e.g. over ``JSON_VAL(attr, 'name')``) it is an :class:`ExpressionKey`,
which runs the indexed expression's batch kernel once per block of rows
when the index is populated or rows are bulk-inserted, and over a one-row
view when a single row is maintained.  The planner matches predicates
against an index through its *fingerprint*, a canonical string of the
indexed expression(s).  Every change is all or nothing: a key that
violates uniqueness leaves the index as it was.
"""

from __future__ import annotations

import bisect
from operator import itemgetter, ne

from repro.relational.errors import ConstraintError


class _TotalOrderKey:
    """Wrap heterogeneous values so they sort without TypeError.

    Values order first by a type rank (None < bool < numbers < str < other),
    then by value within the rank.
    """

    __slots__ = ("rank", "value")

    def __init__(self, value):
        if value is None:
            self.rank, self.value = 0, 0
        elif isinstance(value, bool):
            self.rank, self.value = 1, int(value)
        elif isinstance(value, (int, float)):
            self.rank, self.value = 2, value
        elif isinstance(value, str):
            self.rank, self.value = 3, value
        else:
            self.rank, self.value = 4, repr(value)

    def __lt__(self, other):
        if self.rank != other.rank:
            return self.rank < other.rank
        return self.value < other.value

    def __eq__(self, other):
        return self.rank == other.rank and self.value == other.value

    def __le__(self, other):
        return self == other or self < other

    def __hash__(self):
        return hash((self.rank, self.value))


def total_order_key(value):
    """Public helper: a sort key valid across mixed value types."""
    if isinstance(value, tuple):
        return tuple(_TotalOrderKey(part) for part in value)
    return _TotalOrderKey(value)


class Index:
    """Base class for all secondary indexes."""

    kind = "abstract"

    def __init__(self, name, table_name, key_function, fingerprint, unique=False):
        self.name = name.lower()
        self.table_name = table_name.lower()
        self.key_function = key_function
        self.fingerprint = fingerprint
        self.unique = unique
        #: the CREATE INDEX statement that built this index, when there was
        #: one — checkpoint snapshots replay it to rebuild the structure
        #: (key functions hold compiled code and are never serialized)
        self.ddl = None
        #: equality lookups and range scans served, like the buffer
        #: pool's ``hits``: plain ints EXPLAIN ANALYZE takes deltas of
        self.probes = 0
        self.range_scans = 0

    def key_of(self, row):
        return self.key_function(row)

    def keys_of(self, rows):
        """The keys of *rows*, in order."""
        if isinstance(self.key_function, ExpressionKey):
            return self.key_function.many(rows)
        return list(map(self.key_function, rows))

    def _violation(self, key):
        return ConstraintError(
            f"unique index {self.name!r} violated for key {key!r}"
        )

    def insert(self, rid, row):
        raise NotImplementedError

    def delete(self, rid, row):
        raise NotImplementedError

    def insert_many(self, rids, rows):
        """Index *rows* at *rids* in one loop, all or nothing: a key that
        violates uniqueness (or cannot be computed) leaves the index as
        it was."""
        raise NotImplementedError

    def swap_contents(self, contents=None):
        """Install *contents* (empty when ``None``) and return what the
        index held before — whole-table DELETE empties an index this way
        and its undo puts the old contents back."""
        raise NotImplementedError

    def update(self, rid, old_row, new_row):
        """Move *rid* from *old_row*'s key to *new_row*'s; a new key the
        index refuses leaves the old one in place."""
        if self.key_of(old_row) == self.key_of(new_row):
            return
        self.delete(rid, old_row)
        try:
            self.insert(rid, new_row)
        except Exception:
            self.insert(rid, old_row)
            raise

    def lookup(self, key):
        """Return an iterable of RIDs whose index key equals *key*."""
        raise NotImplementedError


class HashIndex(Index):
    """Equality index: dict from key to the matching RIDs.

    A key held by one row maps to that RID itself; only a key held by
    several maps to a list of them.  Most keys (every primary key) hold
    one row, and a one-element list per key would cost more memory than
    the RID it wraps.

    ``None`` keys are indexed too (lookups for them are used by ``IS NULL``
    style predicates only when explicitly requested by the planner).
    """

    kind = "hash"

    def __init__(self, name, table_name, key_function, fingerprint, unique=False):
        super().__init__(name, table_name, key_function, fingerprint, unique)
        self._buckets: dict[object, object] = {}  # key -> RID | [RID, ...]

    def __len__(self):
        return sum(
            len(rids) if type(rids) is list else 1
            for rids in self._buckets.values()
        )

    def insert(self, rid, row):
        key = self.key_of(row)
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = rid
        elif self.unique and key is not None:
            raise self._violation(key)
        elif type(bucket) is list:
            bucket.append(rid)
        else:
            self._buckets[key] = [bucket, rid]

    def insert_many(self, rids, rows):
        if len(rids) == 1:  # one row is all-or-nothing as it stands
            self.insert(rids[0], rows[0])
            return
        keys = self.keys_of(rows)
        buckets = self._buckets
        get = buckets.get
        unique = self.unique
        done = 0
        try:
            for key, rid in zip(keys, rids):
                bucket = get(key)
                if bucket is None:
                    buckets[key] = rid
                elif unique and key is not None:
                    raise self._violation(key)
                elif type(bucket) is list:
                    bucket.append(rid)
                else:
                    buckets[key] = [bucket, rid]
                done += 1
        except Exception:
            for key, rid in zip(keys[:done], rids):
                self._remove(key, rid)
            raise

    def swap_contents(self, contents=None):
        old = self._buckets
        self._buckets = {} if contents is None else contents
        return old

    def delete(self, rid, row):
        self._remove(self.key_of(row), rid)

    def _remove(self, key, rid):
        bucket = self._buckets.get(key)
        if type(bucket) is list:
            try:
                bucket.remove(rid)
            except ValueError:
                return
            if len(bucket) == 1:
                self._buckets[key] = bucket[0]
        elif bucket is not None and bucket == rid:
            del self._buckets[key]

    def lookup(self, key):
        self.probes += 1
        bucket = self._buckets.get(key)
        if bucket is None:
            return ()
        return bucket if type(bucket) is list else (bucket,)

    def distinct_keys(self):
        return len(self._buckets)


class SortedIndex(Index):
    """Range index: a sorted list of ``(order_key, rid, key)`` entries.

    Entries order by ``(order_key, rid)`` so raw keys (which may be
    incomparable across types) are never compared directly.  ``None`` keys
    sort first and are skipped by range scans, matching SQL semantics where
    comparisons with NULL are unknown.
    """

    kind = "sorted"

    def __init__(self, name, table_name, key_function, fingerprint, unique=False):
        super().__init__(name, table_name, key_function, fingerprint, unique)
        self._entries: list[tuple] = []

    def __len__(self):
        return len(self._entries)

    def _holds(self, order):
        lo = bisect.bisect_left(self._entries, (order,))
        return lo < len(self._entries) and self._entries[lo][0] == order

    def insert(self, rid, row):
        key = self.key_of(row)
        order = total_order_key(key)
        if self.unique and key is not None and self._holds(order):
            raise self._violation(key)
        bisect.insort(self._entries, (order, rid, key))

    def insert_many(self, rids, rows):
        entries = self._entries
        fresh = sorted(
            (total_order_key(key), rid, key)
            for key, rid in zip(self.keys_of(rows), rids)
        )
        if self.unique:
            previous = None
            for order, __, key in fresh:
                if key is None:
                    continue
                if (previous is not None and order == previous) or (
                    self._holds(order)
                ):
                    raise self._violation(key)
                previous = order
        if len(fresh) * 8 < len(entries):
            for entry in fresh:
                bisect.insort(entries, entry)
        else:
            # two sorted runs: list.sort merges them in one galloping
            # pass, but finding the runs costs a comparison per existing
            # entry — hence insort above for a small batch
            entries.extend(fresh)
            entries.sort()

    def swap_contents(self, contents=None):
        old = self._entries
        self._entries = [] if contents is None else contents
        return old

    def delete(self, rid, row):
        key = self.key_of(row)
        order = total_order_key(key)
        lo = bisect.bisect_left(self._entries, (order,))
        while lo < len(self._entries) and self._entries[lo][0] == order:
            if self._entries[lo][1] == rid:
                del self._entries[lo]
                return
            lo += 1

    def lookup(self, key):
        self.probes += 1
        order = total_order_key(key)
        lo = bisect.bisect_left(self._entries, (order,))
        rids = []
        while lo < len(self._entries) and self._entries[lo][0] == order:
            rids.append(self._entries[lo][1])
            lo += 1
        return rids

    def range_scan(self, low=None, high=None, low_inclusive=True, high_inclusive=True):
        """Yield RIDs with keys in the given (partially open) range.

        A bounded scan yields only keys of its bounds' class, string or
        non-string: no order holds between the two (see
        :func:`repro.relational.expressions.compare_values`)."""
        self.range_scans += 1
        text = None  # the bounds' class: True for str, None when unbounded
        for bound in (low, high):
            if bound is not None:
                if text is not None and text is not isinstance(bound, str):
                    return
                text = isinstance(bound, str)
        if low is not None:
            low_order = total_order_key(low)
            if low_inclusive:
                lo = bisect.bisect_left(self._entries, (low_order,))
            else:
                lo = bisect.bisect_right(
                    self._entries, (low_order, (float("inf"), float("inf")))
                )
        else:
            lo = 0
        high_order = total_order_key(high) if high is not None else None
        for position in range(lo, len(self._entries)):
            order, rid, key = self._entries[position]
            if high_order is not None:
                if high_inclusive:
                    if high_order < order:
                        break
                elif not (order < high_order):
                    break
            if key is None or (
                text is not None and isinstance(key, str) is not text
            ):
                continue
            yield rid

    def distinct_keys(self):
        """Distinct keys by their total order, counted now: only planning
        asks, and a cached plan does not plan again."""
        orders = [entry[0] for entry in self._entries]
        return sum(map(ne, orders, orders[1:])) + bool(orders)


def column_key_function(position):
    """Key function projecting a single column by ordinal position."""
    return itemgetter(position)


def composite_key_function(positions):
    """Key function projecting several columns as a tuple."""

    def key(row, _positions=tuple(positions)):
        return tuple(row[p] for p in _positions)

    return key


class ExpressionKey:
    """Key function of an expression index: the batch kernels of the
    indexed expressions, one key part each (a tuple when there are
    several).  :meth:`many` keys a block of rows with one call per kernel;
    calling it keys one row through a one-row view."""

    __slots__ = ("kernels",)

    def __init__(self, kernels):
        self.kernels = kernels

    def __call__(self, row):
        return self.many((row,))[0]

    def many(self, rows):
        columns = list(zip(*rows))
        positions = range(len(rows))
        parts = [kernel(columns, positions) for kernel in self.kernels]
        if len(parts) == 1:
            return parts[0]
        return list(zip(*parts))

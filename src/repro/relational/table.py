"""Heap tables: paged row storage with index maintenance.

A row is addressed by its RID ``(page_no, slot)``.  Deleting a row leaves a
``None`` tombstone in the slot, which keeps index entries and undo records
stable; RIDs are reused only after :meth:`HeapTable.truncate` empties the
whole table and the heap restarts at page 0.
"""

from __future__ import annotations

from repro.relational.errors import CatalogError, TransactionError
from repro.relational.pages import PAGE_CAPACITY


def _txid(transaction):
    """The txid a write logs under: its transaction's, 0 in autocommit."""
    return 0 if transaction is None else transaction.txid


class HeapTable:
    """A heap of rows for one table, living behind a shared buffer pool."""

    def __init__(self, schema, buffer_pool):
        self.schema = schema
        self.name = schema.name
        self._pool = buffer_pool
        self._blobs: list[bytes | None] = []
        self._page_count = 0
        self._last_page_size = 0
        self.live_rows = 0
        self.indexes: dict[str, object] = {}
        #: write-ahead log all mutations report to (None = in-memory only);
        #: installed by the catalog of a durable database
        self.wal = None
        #: callable returning the calling thread's write scope (or None);
        #: installed by the catalog of a Database.  Every mutator checks
        #: here, before it changes anything, that the scope holds this
        #: table's write lock, and takes the transaction to record undo in
        #: from it — the same layer as WAL logging, which covers bulk
        #: loaders and stored procedures, not just SQL DML.  Tables built
        #: bare (no source) and recovery's ``apply_*`` are unchecked.
        self.scope_source = None

    def _transaction(self):
        """The transaction to record undo in (None in autocommit), once
        the calling thread's scope is known to hold the write lock."""
        source = self.scope_source
        if source is None:
            return None
        scope = source()
        if scope is None or self.name not in scope.writes:
            raise TransactionError(
                f"table {self.name!r} written outside a scope holding "
                f"its write lock (see Database.scope)"
            )
        return scope.transaction

    # ------------------------------------------------------------------
    # page-blob interface used by the buffer pool
    # ------------------------------------------------------------------
    def page_blob(self, page_no):
        return self._blobs[page_no]

    def store_page_blob(self, page_no, blob):
        self._blobs[page_no] = blob

    @property
    def page_count(self):
        return self._page_count

    def storage_bytes(self):
        """Approximate on-'disk' size: total bytes of serialized pages.

        Resident-only pages are not counted until they are written back;
        benchmarks call :meth:`repro.relational.pages.BufferPool.clear` first
        when they want an exact figure.
        """
        return sum(len(blob) for blob in self._blobs if blob is not None)

    # ------------------------------------------------------------------
    # row operations
    # ------------------------------------------------------------------
    def insert(self, values, coerce=True):
        """Append one row; returns its RID."""
        return self.insert_many((values,), coerce)[0]

    def insert_many(self, rows, coerce=True):
        """Append *rows* in order; returns their RIDs.

        The single append path (``insert`` is its one-row case).  Work is
        per column, per page and per index rather than per row: one
        coercion sweep per column, one pool fetch per page filled, one
        loop per index, one transaction / WAL lookup per call.  All or
        nothing: a row that fails coercion or a unique index leaves
        pages, every index and the row counters untouched.
        """
        transaction = self._transaction()
        if coerce:
            rows = self.schema.coerce_rows(rows)
        else:
            rows = list(map(tuple, rows))
        count = len(rows)
        if not count:
            return []
        # RIDs follow from the fill state alone (a RID is the row's linear
        # position split by the page capacity), so indexes — which may
        # refuse — are maintained before any page changes
        page_no = self._page_count - 1
        slot = self._last_page_size
        if page_no < 0 or slot >= PAGE_CAPACITY:
            page_no += 1
            slot = 0
        first = page_no * PAGE_CAPACITY + slot
        rids = [
            divmod(position, PAGE_CAPACITY)
            for position in range(first, first + count)
        ]
        indexes = self.indexes.values()
        try:
            for index in indexes:
                index.insert_many(rids, rows)
        except Exception:
            for maintained in indexes:
                if maintained is index:
                    break
                for rid, row in zip(rids, rows):
                    maintained.delete(rid, row)
            raise
        done = 0
        while done < count:
            chunk = rows[done:done + PAGE_CAPACITY - slot]
            if page_no < self._page_count:
                self._pool.fetch(self, page_no, for_write=True).extend(chunk)
            else:
                self._blobs.append(None)
                self._page_count += 1
                self._pool.add_page(self, page_no, chunk)
            done += len(chunk)
            self._last_page_size = slot + len(chunk)
            page_no += 1
            slot = 0
        self.live_rows += count
        if transaction is not None:
            transaction.record_inserts(self, rids)
        wal = self.wal
        if wal is not None and wal.active:
            name = self.name
            txid = _txid(transaction)
            for rid, row in zip(rids, rows):
                wal.log_op("insert", txid, name, rid, row)
        return rids

    def truncate(self):
        """Delete every row in one step; returns how many there were.

        Pages and index contents are dropped wholesale instead of being
        tombstoned row by row, so the heap restarts at page 0 and dead
        pages are reclaimed.  A logged table still emits one ``delete``
        record per live row (the WAL format has no bulk record); inside a
        transaction the old pages and index contents become one undo
        entry that :meth:`restore_all` puts back.
        """
        transaction = self._transaction()
        if not self._page_count:
            return 0
        count = self.live_rows
        wal = self.wal
        if wal is not None and wal.active:
            name = self.name
            txid = _txid(transaction)
            for rid, row in self.scan():
                wal.log_op("delete", txid, name, rid, row)
        frames = self._pool.drop_table(self.name)
        contents = {
            name: index.swap_contents()
            for name, index in self.indexes.items()
        }
        if transaction is not None:
            transaction.record_truncate(self, (
                self._blobs, self._page_count, self._last_page_size,
                count, frames, contents,
            ))
        self._blobs = []
        self._page_count = 0
        self._last_page_size = 0
        self.live_rows = 0
        return count

    def restore_all(self, saved):
        """Undo helper: put back the pages and indexes :meth:`truncate`
        dropped (rows appended since have already been undone)."""
        self._transaction()
        blobs, page_count, last_page_size, count, frames, contents = saved
        self._pool.drop_table(self.name)
        self._blobs = blobs
        self._page_count = page_count
        self._last_page_size = last_page_size
        self._pool.adopt_pages(self.name, frames)
        self.live_rows = count
        for name, index in self.indexes.items():
            index.swap_contents(contents.get(name))
            if name not in contents:  # created since: build it now
                self._populate(index)

    def get(self, rid):
        """Return the row at *rid*, or ``None`` if it was deleted."""
        page_no, slot = rid
        rows = self._pool.fetch(self, page_no)
        return rows[slot]

    def get_many(self, rids):
        """Return the rows at *rids* in order (deleted slots as ``None``).

        Batched point lookup for the vectorized executor: each distinct
        page is fetched from the buffer pool once per call, so an index
        probe over co-located RIDs pays one pool touch per page instead
        of one per row.
        """
        fetch = self._pool.fetch
        pages = {}
        out = []
        append = out.append
        for page_no, slot in rids:
            rows = pages.get(page_no)
            if rows is None:
                rows = pages[page_no] = fetch(self, page_no)
            append(rows[slot])
        return out

    def delete(self, rid):
        """Tombstone the row at *rid*; returns the old row (or ``None``)."""
        transaction = self._transaction()
        page_no, slot = rid
        rows = self._pool.fetch(self, page_no, for_write=True)
        old = rows[slot]
        if old is None:
            return None
        for index in self.indexes.values():
            index.delete(rid, old)
        rows[slot] = None
        self.live_rows -= 1
        if transaction is not None:
            transaction.record_delete(self, rid, old)
        wal = self.wal
        if wal is not None and wal.active:
            wal.log_op("delete", _txid(transaction), self.name, rid, old)
        return old

    def update(self, rid, values, coerce=True):
        """Replace the row at *rid*; returns the old row (``None`` when
        the slot is empty).  An index that refuses the new row's key
        leaves every index as it was, as in :meth:`update_many`."""
        transaction = self._transaction()
        new_row = self.schema.coerce_row(values) if coerce else tuple(values)
        page_no, slot = rid
        rows = self._pool.fetch(self, page_no, for_write=True)
        old = rows[slot]
        if old is None:
            return None
        self._reindex(((rid, old, new_row),))
        rows[slot] = new_row
        self._log_update(transaction, rid, old, new_row)
        return old

    def update_many(self, rids, rows, coerce=True):
        """Replace the rows at *rids* with *rows*; returns how many of
        those slots held a row (empty ones are skipped).

        All or nothing, like :meth:`insert_many`: every row is coerced
        and every index changed before any page is written, so a row that
        fails coercion or a key an index refuses changes nothing.
        """
        transaction = self._transaction()
        rows = self.schema.coerce_rows(rows) if coerce else map(tuple, rows)
        changes = [
            (rid, old, new)
            for rid, old, new in zip(rids, self.get_many(rids), rows)
            if old is not None
        ]
        self._reindex(changes)
        fetch = self._pool.fetch
        for rid, old, new in changes:
            page_no, slot = rid
            fetch(self, page_no, for_write=True)[slot] = new
            self._log_update(transaction, rid, old, new)
        return len(changes)

    def _reindex(self, changes):
        """Move each ``(rid, old row, new row)`` of *changes* to its new
        key in every index; a change an index refuses undoes the rest."""
        done = []
        try:
            for index in self.indexes.values():
                for change in changes:
                    index.update(*change)
                    done.append((index, change))
        except Exception:
            for index, (rid, old, new) in reversed(done):
                index.update(rid, new, old)
            raise

    def _log_update(self, transaction, rid, old, new):
        if transaction is not None:
            transaction.record_update(self, rid, old)
        wal = self.wal
        if wal is not None and wal.active:
            wal.log_op("update", _txid(transaction), self.name, rid, new, old)

    def restore(self, rid, row):
        """Undo helper: put *row* back into a tombstoned slot."""
        transaction = self._transaction()
        page_no, slot = rid
        rows = self._pool.fetch(self, page_no, for_write=True)
        if rows[slot] is not None:
            return
        for index in self.indexes.values():
            index.insert(rid, row)
        rows[slot] = row
        self.live_rows += 1
        if transaction is not None:
            transaction.record_inserts(self, (rid,))
        wal = self.wal
        if wal is not None and wal.active:
            wal.log_op("insert", _txid(transaction), self.name, rid, row)

    # ------------------------------------------------------------------
    # physical redo (crash recovery; see repro.relational.recovery)
    # ------------------------------------------------------------------
    def apply_insert(self, rid, row):
        """Redo an insert at its original RID.

        Unlike :meth:`insert` this honors *rid* exactly, growing pages and
        leaving skipped slots as ``None`` tombstones — replay omits loser
        transactions, so holes where their rows once sat are expected and
        every RID embedded in a later record stays valid.
        """
        page_no, slot = rid
        while self._page_count <= page_no:
            self._blobs.append(None)
            self._pool.add_page(self, self._page_count, [])
            self._page_count += 1
            self._last_page_size = 0
        rows = self._pool.fetch(self, page_no, for_write=True)
        while len(rows) <= slot:
            rows.append(None)
        row = tuple(row)
        old = rows[slot]
        if old is not None:  # defensive: replay over a stale slot
            for index in self.indexes.values():
                index.delete(rid, old)
            self.live_rows -= 1
        for index in self.indexes.values():
            index.insert(rid, row)
        rows[slot] = row
        self.live_rows += 1
        if page_no == self._page_count - 1:
            self._last_page_size = max(self._last_page_size, len(rows))

    def apply_update(self, rid, row):
        """Redo an update: replace the image at *rid*."""
        page_no, slot = rid
        rows = self._pool.fetch(self, page_no, for_write=True)
        old = rows[slot]
        if old is None:
            self.apply_insert(rid, row)
            return
        row = tuple(row)
        for index in self.indexes.values():
            index.update(rid, old, row)
        rows[slot] = row

    def apply_delete(self, rid):
        """Redo a delete: tombstone the slot at *rid*."""
        page_no, slot = rid
        if page_no >= self._page_count:
            return
        rows = self._pool.fetch(self, page_no, for_write=True)
        if slot >= len(rows):
            return
        old = rows[slot]
        if old is None:
            return
        for index in self.indexes.values():
            index.delete(rid, old)
        rows[slot] = None
        self.live_rows -= 1

    def scan(self):
        """Yield ``(rid, row)`` for every live row."""
        for page_no in range(self._page_count):
            rows = self._pool.fetch(self, page_no)
            for slot, row in enumerate(rows):
                if row is not None:
                    yield (page_no, slot), row

    def scan_rows(self):
        """Yield live rows only (no RIDs) — the common read path."""
        for page_no in range(self._page_count):
            for row in self._pool.fetch(self, page_no):
                if row is not None:
                    yield row

    def scan_batches(self):
        """Yield live rows as dense :class:`~repro.relational.batch.
        ColumnBatch` blocks of at most ``BATCH_SIZE`` rows, in heap order.

        Each page's live rows are transposed with ``zip(*rows)`` (C speed)
        and accumulated until the next page would overflow the block;
        tombstoned slots are filtered out before transposing, so emitted
        batches are always dense (``sel is None``).
        """
        from repro.relational.batch import BATCH_SIZE, ColumnBatch

        width = len(self.schema.columns)
        buffered = []
        for page_no in range(self._page_count):
            page = self._pool.fetch(self, page_no)
            live = [row for row in page if row is not None]
            if len(buffered) + len(live) > BATCH_SIZE:
                yield ColumnBatch.from_rows(buffered, width)
                buffered = []
            buffered.extend(live)
        if buffered:
            yield ColumnBatch.from_rows(buffered, width)

    # ------------------------------------------------------------------
    # index management
    # ------------------------------------------------------------------
    def attach_index(self, index, populate=True):
        if index.name in self.indexes:
            raise CatalogError(f"index {index.name!r} already exists")
        if populate:
            self._populate(index)
        self.indexes[index.name] = index
        return index

    def _populate(self, index):
        pairs = list(self.scan())
        if pairs:
            index.insert_many(*map(list, zip(*pairs)))

    def find_index(self, fingerprint, kind=None):
        """Return an index whose fingerprint matches, preferring hash."""
        matches = [
            index
            for index in self.indexes.values()
            if index.fingerprint == fingerprint and (kind is None or index.kind == kind)
        ]
        if not matches:
            return None
        matches.sort(key=lambda index: 0 if index.kind == "hash" else 1)
        return matches[0]

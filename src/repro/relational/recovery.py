"""Crash recovery: catalog snapshots plus two-pass log replay.

A durable database directory holds two files::

    <path>/snapshot.pkl   last checkpoint: catalog + all table pages
    <path>/wal.log        records appended since that checkpoint

**Checkpoint protocol** (see :meth:`repro.relational.database.Database.
checkpoint`): quiesce (no active transactions, write locks on every
table), write back dirty pages, serialize the catalog state to
``snapshot.pkl.tmp``, fsync, atomically rename over the old snapshot,
fsync the directory, then truncate the log and stamp a ``checkpoint``
record.  A crash between the rename and the truncate is harmless: the
stale log records carry LSNs at or below the snapshot's ``last_lsn`` and
are skipped on replay.

**Recovery phases** (:func:`recover`, run by ``Database(path=...)``):

1. *Snapshot load* — rebuild every table from its pickled schema and page
   blobs, re-attach the primary-key index, and re-execute the stored
   ``CREATE INDEX`` DDL (index structures are rebuilt, never serialized).
2. *Log analysis* — scan the log, stopping at the first torn or corrupt
   frame (the discarded tail can only be the unsynced suffix of the
   crash); collect the set of transaction ids with a ``commit`` record.
3. *Redo* — replay, in log order, every record above the snapshot LSN
   whose transaction committed (autocommit records — txid 0 — always
   qualify).  Ops of loser transactions are skipped wholesale, so no undo
   pass is needed; their row slots stay tombstoned exactly as RID-stable
   heap tables require.

Replay applies physical images at their original RIDs
(:meth:`~repro.relational.table.HeapTable.apply_insert` and friends) so
RIDs embedded in later records stay valid even when loser slots are
skipped.
"""

from __future__ import annotations

import os
import pickle

from repro.relational.schema import TableSchema
from repro.relational.table import HeapTable
from repro.relational.wal import scan_log

SNAPSHOT_NAME = "snapshot.pkl"
WAL_NAME = "wal.log"
SNAPSHOT_FORMAT = 1


def snapshot_path(directory):
    return os.path.join(directory, SNAPSHOT_NAME)


def wal_path(directory):
    return os.path.join(directory, WAL_NAME)


# ----------------------------------------------------------------------
# checkpoint snapshot
# ----------------------------------------------------------------------
def write_snapshot(database, directory):
    """Serialize the full catalog state atomically to ``snapshot.pkl``."""
    pool = database.buffer_pool
    if pool.capacity_pages is not None:
        # a bounded pool keeps blobs to evict to anyway: write dirty pages
        # back once, so later checkpoints need not serialize them again.
        # An unbounded pool never evicts, and a blob beside each resident
        # page would double its memory: page_image serializes dirty pages
        # for the snapshot without keeping the result (so they stay dirty
        # and the next checkpoint serializes them again).
        pool.flush_all()
    tables = []
    for table in database.catalog._tables.values():
        tables.append(
            {
                "schema": table.schema.describe(),
                "blobs": [
                    pool.page_image(table, page_no)
                    for page_no in range(table.page_count)
                ],
                "page_count": table._page_count,
                "last_page_size": table._last_page_size,
                "live_rows": table.live_rows,
                "index_ddl": [
                    index.ddl
                    for index in table.indexes.values()
                    if index.ddl is not None
                ],
            }
        )
    state = {
        "format": SNAPSHOT_FORMAT,
        "last_lsn": database.wal.last_lsn,
        "schema_epoch": database.schema_epoch,
        "meta": dict(database.meta),
        "tables": tables,
    }
    final = snapshot_path(directory)
    tmp = final + ".tmp"
    with open(tmp, "wb") as fh:
        pickle.dump(state, fh, protocol=5)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, final)
    directory_fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(directory_fd)
    finally:
        os.close(directory_fd)


def load_snapshot(database, directory):
    """Rebuild the catalog from the snapshot; returns its ``last_lsn``
    (0 when no snapshot exists)."""
    path = snapshot_path(directory)
    if not os.path.exists(path):
        return 0
    with open(path, "rb") as fh:
        state = pickle.load(fh)
    pool = database.buffer_pool
    secondary_ddl = []
    for entry in state["tables"]:
        schema = TableSchema.from_description(entry["schema"])
        table = HeapTable(schema, pool)
        table._blobs = list(entry["blobs"])
        table._page_count = entry["page_count"]
        table._last_page_size = entry["last_page_size"]
        table.live_rows = entry["live_rows"]
        database.catalog._tables[schema.name] = table
        if schema.primary_key is not None:
            database._create_pk_index(table, schema.primary_key, populate=True)
        secondary_ddl.extend(entry["index_ddl"])
    # index *structures* are never serialized; re-run their DDL (the WAL is
    # closed at this point, so nothing is re-logged)
    for ddl in secondary_ddl:
        database.execute(ddl)
    database.meta.update(state["meta"])
    database.schema_epoch = max(database.schema_epoch, state["schema_epoch"])
    return state["last_lsn"]


# ----------------------------------------------------------------------
# log replay
# ----------------------------------------------------------------------
def replay_records(database, records, start_lsn):
    """Redo every surviving record above *start_lsn*; returns the count
    applied.  Pass 1 collects committed txids; pass 2 applies in order."""
    committed = {
        txid for __, kind, txid, __data, __end in records if kind == "commit"
    }
    applied = 0
    for lsn, kind, txid, data, __end in records:
        if lsn <= start_lsn:
            continue
        if kind in ("commit", "abort", "checkpoint"):
            continue
        if kind in ("insert", "update", "delete") and txid != 0 \
                and txid not in committed:
            continue  # loser: never applied, slot stays tombstoned
        if kind == "ddl":
            database.execute(data)
        elif kind == "meta":
            key, value = data
            database.meta[key] = value
        elif kind == "insert":
            table_name, rid, row = data
            database.catalog.get_table(table_name).apply_insert(rid, row)
        elif kind == "update":
            table_name, rid, new_row, __old_row = data
            database.catalog.get_table(table_name).apply_update(rid, new_row)
        elif kind == "delete":
            table_name, rid, __old_row = data
            database.catalog.get_table(table_name).apply_delete(rid)
        else:
            raise ValueError(f"unknown WAL record kind {kind!r}")
        applied += 1
    return applied


def recover(database, directory):
    """Run full recovery for *directory* against an empty *database*.

    Returns ``(valid_end, next_lsn)``: the byte offset the (possibly torn)
    log should be truncated to before appending resumes, and the next LSN
    to allocate.  Counters land on ``database.wal``.
    """
    start_lsn = load_snapshot(database, directory)
    records, valid_end, torn = scan_log(wal_path(directory))
    applied = replay_records(database, records, start_lsn)
    wal = database.wal
    wal.replayed += applied
    if torn is not None:
        wal.torn_dropped += 1
    max_lsn = max(
        [start_lsn] + [lsn for lsn, *__ in records]
    )
    return valid_end, max_lsn + 1

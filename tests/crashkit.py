"""Crash-injection harness for the durability subsystem.

The harness runs a *recorded* random workload against a durable
:class:`~repro.relational.database.Database`, remembering the WAL byte
offset at the end of every workload *unit* (an autocommitted statement or
a whole explicit transaction).  A crash is then simulated by copying the
database directory and truncating — or corrupting — the log copy at an
arbitrary byte offset before reopening it.  Correctness is differential:
the recovered state must equal an in-memory *oracle* database that ran
exactly the units whose commit point survived the cut.

Three invariants fall out of the design:

* **No lost committed transaction** — a unit whose end offset is at or
  below the cut is fully present after recovery.
* **No resurrected loser** — units cut mid-way (their commit record did
  not survive) and explicitly aborted transactions contribute nothing.
* **Torn tails are dropped, not trusted** — a cut that lands inside a
  record leaves a frame that fails the length/CRC check; recovery
  truncates it and behaves exactly like the cut at the previous record
  boundary.

Workload units keep autocommitted DML to single-row effects (point
updates/deletes by primary key) so every autocommit unit is exactly one
WAL record; multi-row statements only appear inside explicit
transactions, where the commit record already delimits atomicity.
"""

from __future__ import annotations

import os
import random
import shutil

from repro.relational.database import Database
from repro.relational.wal import scan_log


class _Abort(Exception):
    """Raised inside a transaction block to force a rollback."""


class Unit:
    """One atomic step of a recorded workload.

    :param kind: ``"auto"`` (autocommitted statements), ``"txn"``
        (committed transaction) or ``"abort"`` (rolled-back transaction).
    :param statements: the SQL executed, in order.

    ``end_offset`` is filled in by :func:`run_workload`: the WAL size in
    bytes right after this unit's commit point.
    """

    __slots__ = ("kind", "statements", "end_offset")

    def __init__(self, kind, statements):
        self.kind = kind
        self.statements = list(statements)
        self.end_offset = None

    def __repr__(self):
        return f"Unit({self.kind}, {len(self.statements)} stmts)"


# ----------------------------------------------------------------------
# workload generation
# ----------------------------------------------------------------------
def generate_workload(seed, size=200):
    """A deterministic list of :class:`Unit` for *seed*.

    The generator tracks its own model of committed keys so updates and
    deletes always target rows that exist at that point (aborted units do
    not advance the model — their effects never become visible).
    """
    rng = random.Random(seed)
    units = [
        Unit("auto", [
            "CREATE TABLE kv (k INTEGER PRIMARY KEY, v STRING, n INTEGER)"
        ]),
        Unit("auto", ["CREATE INDEX kv_n ON kv (n)"]),
        Unit("auto", [
            "CREATE TABLE audit (id INTEGER PRIMARY KEY, tag STRING)"
        ]),
        Unit("auto", ["CREATE INDEX audit_tag ON audit (tag) USING sorted"]),
    ]
    live = []          # committed keys of kv, in insertion order
    next_key = [0]
    next_audit = [0]

    def insert_sql():
        next_key[0] += 1
        k = next_key[0]
        return k, (
            f"INSERT INTO kv VALUES ({k}, 'v{k}', {rng.randrange(10)})"
        )

    def audit_sql():
        next_audit[0] += 1
        i = next_audit[0]
        return f"INSERT INTO audit VALUES ({i}, 'tag{rng.randrange(5)}')"

    while len(units) < size:
        roll = rng.random()
        if roll < 0.35 or not live:
            k, sql = insert_sql()
            units.append(Unit("auto", [sql]))
            live.append(k)
        elif roll < 0.5:
            k = rng.choice(live)
            units.append(Unit("auto", [
                f"UPDATE kv SET v = 'u{rng.randrange(100)}', "
                f"n = {rng.randrange(10)} WHERE k = {k}"
            ]))
        elif roll < 0.6:
            k = rng.choice(live)
            units.append(Unit("auto", [f"DELETE FROM kv WHERE k = {k}"]))
            live.remove(k)
        elif roll < 0.7:
            units.append(Unit("auto", [audit_sql()]))
        else:
            # explicit transaction: several statements, committed or not
            committed = roll < 0.9
            statements = []
            keys_added = []
            for __ in range(rng.randrange(1, 4)):
                inner = rng.random()
                if inner < 0.5 or not live:
                    k, sql = insert_sql()
                    statements.append(sql)
                    keys_added.append(k)
                elif inner < 0.75:
                    k = rng.choice(live)
                    statements.append(
                        f"UPDATE kv SET n = {rng.randrange(10)} WHERE k = {k}"
                    )
                else:
                    statements.append(audit_sql())
            statements.append(audit_sql())
            if committed:
                units.append(Unit("txn", statements))
                live.extend(keys_added)
            else:
                units.append(Unit("abort", statements))
    return units


def run_workload(database, units):
    """Execute *units* against a durable *database*, recording offsets."""
    wal = database.wal
    for unit in units:
        if unit.kind == "auto":
            for sql in unit.statements:
                database.execute(sql)
        else:
            try:
                with database.transaction():
                    for sql in unit.statements:
                        database.execute(sql)
                    if unit.kind == "abort":
                        raise _Abort()
            except _Abort:
                pass
        wal.flush()
        unit.end_offset = os.path.getsize(wal.path)


def oracle_database(units, cut_offset):
    """An in-memory database holding exactly the committed prefix.

    A unit survives the cut iff its commit point (``end_offset``) is at
    or below *cut_offset* — cut-off transactions are losers by
    definition, and aborted units never count.
    """
    database = Database()
    for unit in units:
        if unit.kind == "abort":
            continue
        if unit.end_offset is None or unit.end_offset > cut_offset:
            continue
        if unit.kind == "auto":
            for sql in unit.statements:
                database.execute(sql)
        else:
            with database.transaction():
                for sql in unit.statements:
                    database.execute(sql)
    return database


# ----------------------------------------------------------------------
# crash simulation
# ----------------------------------------------------------------------
def crash_copy(source_dir, target_dir, cut_offset=None, corrupt_at=None):
    """Copy a database directory, optionally mutilating the log copy.

    :param cut_offset: truncate the WAL copy to this many bytes
        (simulates the unsynced tail never reaching disk).
    :param corrupt_at: XOR one byte of the WAL copy at this offset
        (simulates a misdirected / bit-rotted write).
    """
    from repro.relational.recovery import wal_path

    shutil.copytree(source_dir, target_dir)
    log = wal_path(target_dir)
    if cut_offset is not None:
        with open(log, "r+b") as fh:
            fh.truncate(cut_offset)
    if corrupt_at is not None:
        with open(log, "r+b") as fh:
            fh.seek(corrupt_at)
            byte = fh.read(1)
            fh.seek(corrupt_at)
            fh.write(bytes([byte[0] ^ 0xFF]))
    return target_dir


def record_boundaries(log_path):
    """Every intact record's end offset in the log (ascending)."""
    records, __valid_end, __torn = scan_log(log_path)
    return [end for *__parts, end in records]


# ----------------------------------------------------------------------
# state extraction / comparison
# ----------------------------------------------------------------------
def _index_keys(index):
    """Multiset of keys an index currently holds (internals-aware)."""
    buckets = getattr(index, "_buckets", None)
    if buckets is not None:
        keys = []
        for key in buckets:
            keys.extend([key] * len(index.lookup(key)))
        return keys
    return [key for __order, __rid, key in index._entries]


def database_state(database):
    """Comparable snapshot of every table: row and index-key multisets.

    RIDs are deliberately excluded — recovery leaves tombstone holes
    where loser transactions' rows sat, so physical addresses differ from
    an oracle that never ran the losers, while logical content must not.
    """
    state = {}
    for name in database.catalog.table_names():
        table = database.catalog.get_table(name)
        rows = sorted(repr(row) for row in table.scan_rows())
        indexes = {}
        for index_name, index in sorted(table.indexes.items()):
            indexes[index_name] = sorted(
                repr(key) for key in _index_keys(index)
            )
        state[name] = {
            "rows": rows,
            "live_rows": table.live_rows,
            "indexes": indexes,
        }
    return state


def assert_states_equal(recovered, oracle, context=""):
    """Assert two :func:`database_state` snapshots match, with detail."""
    assert set(recovered) == set(oracle), (
        f"{context}: table sets differ: "
        f"{sorted(recovered)} vs {sorted(oracle)}"
    )
    for name in sorted(oracle):
        got, want = recovered[name], oracle[name]
        assert got["rows"] == want["rows"], (
            f"{context}: rows of {name!r} differ\n"
            f"  recovered: {got['rows']}\n  oracle:    {want['rows']}"
        )
        assert got["live_rows"] == want["live_rows"], (
            f"{context}: live_rows of {name!r}: "
            f"{got['live_rows']} vs {want['live_rows']}"
        )
        assert got["indexes"] == want["indexes"], (
            f"{context}: index keys of {name!r} differ\n"
            f"  recovered: {got['indexes']}\n  oracle:    {want['indexes']}"
        )

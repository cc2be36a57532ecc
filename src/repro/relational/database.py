"""The Database facade: catalog, statement execution, transactions.

``Database.execute(sql, params)`` is the single entry point.  SELECT
statements return a :class:`ResultSet`; DML returns a ResultSet whose
``rowcount`` is set.  Statements run under table-level two-phase locking;
``Database.transaction()`` groups statements with undo-based rollback.

Passing ``path=...`` makes the database *durable*: every mutation is
written ahead to ``<path>/wal.log``, checkpoints snapshot the catalog to
``<path>/snapshot.pkl``, and reopening the same path recovers exactly the
committed state (see :mod:`repro.relational.wal` and
:mod:`repro.relational.recovery`).
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from itertools import chain
from time import perf_counter

from repro.obs import context as obs_context
from repro.obs.stats import (
    ExecutionStats,
    instrument_plan,
    render_explain_analyze,
)
from repro.relational import expressions as ex
from repro.relational import operators as op
from repro.relational.batch import BATCH_SIZE, ColumnBatch
from repro.relational.cache import LRUCache
from repro.relational.errors import BindError, CatalogError, TransactionError
from repro.relational.index import (
    ExpressionKey,
    HashIndex,
    SortedIndex,
    column_key_function,
    composite_key_function,
)
from repro.relational.locks import LockManager
from repro.relational.pages import BufferPool
from repro.relational.plan import PlanPool, Runtime
from repro.relational.planner import Planner
from repro.relational.schema import Column, ColumnType, TableSchema
from repro.relational.sql import ast_nodes as ast
from repro.relational.sql.parser import parse_statement
from repro.relational.stats import META_STATS_KEY, StatisticsRegistry
from repro.relational.table import HeapTable

#: recognized planner options and their validators.  Options are read
#: through :meth:`Database.planner_option`, never via raw dict access —
#: a typo'd name or a non-numeric value fails loudly at construction
#: instead of silently planning with a default mid-join-ordering.
PLANNER_OPTION_SPECS = {
    "index_probe_cost": "positive number",
}


def validate_planner_options(options):
    """Type-check a ``planner_options`` mapping; returns a clean dict."""
    validated = {}
    for name, value in (options or {}).items():
        if name not in PLANNER_OPTION_SPECS:
            known = ", ".join(sorted(PLANNER_OPTION_SPECS))
            raise ValueError(
                f"unknown planner option {name!r} (known: {known})"
            )
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ValueError(
                f"planner option {name!r} must be a "
                f"{PLANNER_OPTION_SPECS[name]}, got {value!r}"
            )
        if value <= 0:
            raise ValueError(
                f"planner option {name!r} must be a "
                f"{PLANNER_OPTION_SPECS[name]}, got {value!r}"
            )
        validated[name] = float(value)
    return validated


#: the lock :meth:`Database.put_meta` writes under — no SQL identifier
#: spells it, and it sorts before every table name
META_LOCK = "<meta>"


class _ThreadState(threading.local):
    """Per-thread database state: the open write scope or transaction."""

    scope = None


class ResultSet:
    """Materialized result of one statement."""

    __slots__ = ("columns", "rows", "rowcount")

    def __init__(self, columns=(), rows=(), rowcount=0):
        self.columns = list(columns)
        self.rows = list(rows)
        self.rowcount = rowcount

    def scalar(self):
        """First column of the first row (None when empty)."""
        if not self.rows:
            return None
        return self.rows[0][0]

    def column(self, position=0):
        return [row[position] for row in self.rows]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class Catalog:
    """All tables of a database."""

    def __init__(self, buffer_pool):
        self._tables: dict[str, HeapTable] = {}
        self._pool = buffer_pool
        #: WAL new tables report their mutations to (durable mode only)
        self.wal = None
        #: callable returning the calling thread's write scope (see
        #: HeapTable.scope_source)
        self.scope_source = None
        buffer_pool.bind_catalog(self._tables.get)

    def create_table(self, schema):
        name = schema.name
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = HeapTable(schema, self._pool)
        table.wal = self.wal
        table.scope_source = self.scope_source
        self._tables[name] = table
        return table

    def get_table(self, name):
        table = self._tables.get(name.lower())
        if table is None:
            raise BindError(f"unknown table {name!r}")
        return table

    def has_table(self, name):
        return name.lower() in self._tables

    def drop_table(self, name):
        table = self._tables.pop(name.lower(), None)
        if table is not None:
            self._pool.drop_table(table.name)
        return table is not None

    def table_names(self):
        return sorted(self._tables)

    def indexes(self):
        """Every index of every table, as a list taken now."""
        return [
            index
            for table in list(self._tables.values())
            for index in list(table.indexes.values())
        ]


class _LockHolder:
    """What a write scope and a transaction share: the names of the tables
    this thread holds for read (``reads``) and for write (``writes``), as
    the normalized sets :meth:`LockManager.acquire` granted and
    :meth:`LockManager.release` gives back, and how a nested scope adds
    its own."""

    __slots__ = ()

    def join(self, locks, reads, writes):
        """Take the locks of *reads* and *writes* not held yet, in one
        grant.  A table held for read and now written is upgraded in place
        (see :mod:`repro.relational.locks`); a failed call changes nothing
        this holder holds."""
        held = self.reads | self.writes
        writes = set(writes).difference(self.writes)
        reads = set(reads).difference(held, writes)
        reads, writes = locks.acquire(reads, writes, holding=held)
        self.reads = (self.reads - writes) | reads
        self.writes = self.writes | writes


class WriteScope(_LockHolder):
    """``with database.scope(reads, writes):`` — the one way a thread
    locks tables, and the one place an autocommit write becomes durable.

    The outermost scope of a thread takes its locks and becomes the
    thread's scope (its *reads* and *writes* become the normalized sets
    the lock manager granted); a scope opened inside it, or inside an
    explicit transaction, adds its locks to that one instead, and nothing
    is released or committed until the outermost exits.  That exit releases
    every lock, then — when it exits normally holding a write lock —
    reaches the WAL commit point and the auto-checkpoint (after the locks
    are gone: group commit may fsync, and a checkpoint wants those same
    locks).  A read-only scope, or one left by an exception, only
    releases.  A table of a :class:`Database` refuses a write unless the
    calling thread's scope holds that table's write lock.
    """

    __slots__ = ("database", "reads", "writes", "outermost")

    #: undo is recorded only inside an explicit transaction
    transaction = None
    #: an open scope always counts as its thread's scope
    active = True

    def __init__(self, database, reads, writes):
        self.database = database
        self.reads = reads
        self.writes = writes

    def __enter__(self):
        database = self.database
        owner = database._current_scope()
        self.outermost = owner is None
        if owner is None:
            self.reads, self.writes = database.locks.acquire(
                self.reads, self.writes
            )
            database._local.scope = self
        else:
            owner.join(database.locks, self.reads, self.writes)
        return self

    def __exit__(self, exc_type, exc, tb):
        if not self.outermost:
            return False
        database = self.database
        database._local.scope = None
        database.locks.release(self.reads, self.writes)
        if exc_type is None and self.writes:
            wal = database.wal
            if wal is not None and not wal.closed:
                wal.commit_point()
                database._maybe_auto_checkpoint()
        return False


class Transaction(_LockHolder):
    """Undo log + held locks for an explicit transaction: while open it
    is its thread's scope (see :class:`WriteScope`), so every scope its
    statements and procedures open adds to its locks, and the tables log
    their writes under its ``txid``.  Once finished, from whichever
    thread, it is no thread's scope (see :meth:`Database._current_scope`).
    """

    def __init__(self, database, txid=0):
        self.database = database
        #: nonzero for durable databases; ops logged under this txid are
        #: redone at recovery only if the matching COMMIT record survives
        self.txid = txid
        self.undo = []  # (kind, table, rid, old_row)
        self.reads = set()
        self.writes = set()
        self.active = True
        #: where tables record undo: this transaction while it is open,
        #: None from its rollback on (undo must not re-record)
        self.transaction = self

    def record_inserts(self, table, rids):
        self.undo.extend([("insert", table, rid, None) for rid in rids])

    def record_truncate(self, table, saved):
        self.undo.append(("truncate", table, None, saved))

    def record_delete(self, table, rid, old_row):
        self.undo.append(("delete", table, rid, old_row))

    def record_update(self, table, rid, old_row):
        self.undo.append(("update", table, rid, old_row))

    def commit(self):
        self._finish("commit")

    def rollback(self):
        # The undo writes under this transaction's locks, so it runs with
        # the transaction as the calling thread's scope, recording nothing.
        # Lock release must not depend on the undo loop succeeding: a
        # failing compensation step would otherwise leave the table locks
        # held forever (and the session wedged).  The undo runs with WAL
        # logging paused — recovery simply skips loser transactions, so
        # compensation writes must not reach the log.
        local = self.database._local
        bound = local.scope
        local.scope = self
        self.transaction = None
        try:
            wal = self.database.wal
            if wal is not None:
                with wal.pause():
                    self._undo_all()
            else:
                self._undo_all()
        finally:
            local.scope = bound
            self._finish("abort")

    def _undo_all(self):
        for kind, table, rid, old_row in reversed(self.undo):
            if kind == "insert":
                table.delete(rid)
            elif kind == "delete":
                table.restore(rid, old_row)
            elif kind == "update":
                table.update(rid, old_row, coerce=False)
            elif kind == "truncate":
                table.restore_all(old_row)

    def _finish(self, outcome):
        if not self.active:
            raise TransactionError("transaction already finished")
        self.active = False
        self.transaction = None
        database = self.database
        wal = database.wal
        try:
            if wal is not None and self.txid and not wal.closed:
                wal.append(outcome, txid=self.txid)
                wal.commit_point()
        finally:
            database.locks.release(self.reads, self.writes)
            self.undo.clear()
            self.reads.clear()
            self.writes.clear()
            database._transaction_finished(self.txid)


class PreparedStatement:
    """A plan-cache entry: the normalized statement text (its cache key,
    and what DDL logs to the WAL), the parsed statement (immutable once
    cached; the planner is copy-on-write), its lock sets, and the
    :class:`~repro.relational.plan.PlanPool` of cached physical plans a
    SELECT, INSERT, UPDATE or DELETE is re-opened from."""

    __slots__ = ("sql", "statement", "read_tables", "write_tables", "plans")

    def __init__(self, sql, statement, read_tables, write_tables):
        self.sql = sql
        self.statement = statement
        self.read_tables = read_tables
        self.write_tables = write_tables
        self.plans = PlanPool()


class Database:
    """An in-process relational database.

    :param buffer_pool_pages: LRU buffer pool capacity in pages
        (``None`` = unbounded).
    :param lock_timeout: seconds to wait for a table lock (``None`` =
        ``REPRO_LOCK_TIMEOUT_MS`` env, default 30s).
    :param path: directory for durable storage.  ``None`` (the default)
        keeps the database purely in memory; a path enables write-ahead
        logging, checkpoints and crash recovery on open.
    :param wal_fsync: ``"always"`` | ``"group"`` | ``"off"``
        (``None`` = ``REPRO_WAL_FSYNC`` env, default ``group``).
    :param wal_group_window_ms: group-commit fsync window in milliseconds
        (``None`` = ``REPRO_WAL_GROUP_WINDOW_MS`` env, default 5).
    :param wal_checkpoint_every: auto-checkpoint after this many log
        records (0 disables; ``None`` = ``REPRO_WAL_CHECKPOINT_EVERY``
        env, default 10000).
    """

    def __init__(self, buffer_pool_pages=None, lock_timeout=None,
                 planner_options=None, path=None,
                 wal_fsync=None, wal_group_window_ms=None,
                 wal_checkpoint_every=None):
        self.buffer_pool = BufferPool(buffer_pool_pages)
        self.catalog = Catalog(self.buffer_pool)
        self.catalog.scope_source = self._current_scope
        self.functions = ex.default_functions()
        self.locks = LockManager(lock_timeout)
        self.planner_options = validate_planner_options(planner_options)
        #: ANALYZE statistics (see repro.relational.stats); consulted by
        #: every planner
        self.statistics = StatisticsRegistry()
        self._local = _ThreadState()
        self.statements_executed = 0  # guarded-by: _txn_guard
        #: monotonic counter bumped by every DDL statement; prepared plans
        #: cached under an older epoch are invalid.
        self.schema_epoch = 0
        self.plan_cache = LRUCache()
        #: durable key/value side-store (see :meth:`put_meta`); snapshotted
        #: at checkpoints and carried through recovery
        self.meta = {}
        self.path = path
        self.wal = None
        self._txn_guard = threading.Lock()
        self._next_txid = 1  # guarded-by: _txn_guard
        self._active_txns = set()  # guarded-by: _txn_guard
        self._wal_checkpoint_every = 0
        if path is not None:
            self._open_durable(
                path, wal_fsync, wal_group_window_ms, wal_checkpoint_every
            )

    def _open_durable(self, path, wal_fsync, wal_group_window_ms,
                      wal_checkpoint_every):
        from repro.relational import recovery
        from repro.relational.wal import WriteAheadLog, resolve_checkpoint_every

        os.makedirs(path, exist_ok=True)
        self._wal_checkpoint_every = resolve_checkpoint_every(
            wal_checkpoint_every
        )
        # The WAL object exists (closed) during recovery so replay counters
        # have somewhere to land; logging only starts once it is opened.
        self.wal = WriteAheadLog(
            recovery.wal_path(path), wal_fsync, wal_group_window_ms
        )
        valid_end, next_lsn = recovery.recover(self, path)
        self.wal.open(append_at=valid_end, next_lsn=next_lsn)
        self.catalog.wal = self.wal
        for table in self.catalog._tables.values():
            table.wal = self.wal
            table.scope_source = self.catalog.scope_source
        # ANALYZE statistics ride the meta channel: reload them (validated
        # against the recovered catalog) so the cost model survives restarts
        payload = self.meta.get(META_STATS_KEY)
        if payload:
            self.statistics.load_meta(self, payload)
        # Checkpoint immediately: the recovered state becomes the snapshot
        # and the (possibly long, possibly torn) log is truncated, so txids
        # from the previous incarnation can never collide with ours.
        self.checkpoint()

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def execute(self, sql, params=None):
        """Parse (or reuse a prepared statement), lock and run one SQL
        statement.  ``params`` binds positional ``?`` placeholders for this
        execution only; the cached AST is never mutated.  Whether the
        statement was already prepared lands on the calling thread's
        request record (``repro.obs.context.current().plan_cache_hit``)."""
        prepared = self._prepare(sql)
        with self._txn_guard:
            self.statements_executed += 1
        with self.scope(prepared.read_tables, prepared.write_tables):
            return self._dispatch(prepared, params)

    def scope(self, reads=(), writes=()):
        """``with database.scope(reads, writes):`` — lock the named tables
        for the block; table writes need a scope holding the table's write
        lock, and an autocommit scope with writes reaches the commit point
        as it exits (see :class:`WriteScope`)."""
        return WriteScope(self, reads, writes)

    def _current_scope(self):
        """The calling thread's open scope or transaction, or ``None``.
        A transaction committed or rolled back (from any thread) is
        dropped here, so the thread's next statement runs on its own."""
        local = self._local
        scope = local.scope
        if scope is not None and not scope.active:
            scope = local.scope = None
        return scope

    def _prepare(self, sql):
        """Parse + lock-analyze *sql*, going through the plan cache.

        Entries are keyed by the normalized statement text and validated
        against the current schema epoch, so any DDL since insertion forces
        a re-parse (and re-derivation of lock sets against the new catalog).
        """
        key = sql.strip()
        epoch = self.schema_epoch
        prepared = self.plan_cache.get(key, epoch=epoch)
        obs_context.current().plan_cache_hit = prepared is not None
        if prepared is not None:
            return prepared
        statement = parse_statement(sql)
        read_tables, write_tables = self._lock_sets(statement)
        prepared = PreparedStatement(key, statement, read_tables, write_tables)
        self.plan_cache.put(key, prepared, epoch=epoch)
        return prepared

    def _plan(self, statement, params=None, stats=None):
        """Plan *statement* into a fresh :class:`Plan`: the one place
        planners are built — a plan-cache miss of any statement that finds
        or computes rows, and EXPLAIN and instrumented runs, which keep
        theirs private so instrumentation never wraps a cached plan."""
        planner = Planner(self, Runtime(self, params))
        planner.stats = stats
        return planner.plan(statement)

    def planner_option(self, name, default=None):
        """Validated read of one planner option (see PLANNER_OPTION_SPECS)."""
        if name not in PLANNER_OPTION_SPECS:
            known = ", ".join(sorted(PLANNER_OPTION_SPECS))
            raise ValueError(
                f"unknown planner option {name!r} (known: {known})"
            )
        return self.planner_options.get(name, default)

    def _bump_schema_epoch(self):
        """Invalidate every compiled plan after a schema change."""
        self.schema_epoch += 1
        self.plan_cache.invalidate_all()

    def begin(self):
        """Open an explicit transaction bound to the calling thread.

        Statements this thread executes join it until its ``commit()`` or
        ``rollback()``, from this thread or any other, ends it.
        """
        if self._current_scope() is not None:
            raise TransactionError(
                "a transaction or write scope is already open (nested "
                "transactions are not supported)"
            )
        transaction = Transaction(self, self._begin_txid())
        self._local.scope = transaction
        return transaction

    @contextmanager
    def transaction(self):
        """Context manager: commit on clean exit, rollback on exception."""
        transaction = self.begin()
        try:
            yield transaction
        except BaseException:
            transaction.rollback()
            raise
        transaction.commit()

    def current_transaction(self):
        scope = self._current_scope()
        return scope.transaction if scope is not None else None

    # ------------------------------------------------------------------
    # durability (no-ops for in-memory databases)
    # ------------------------------------------------------------------
    def _begin_txid(self):
        if self.wal is None:
            return 0
        with self._txn_guard:
            txid = self._next_txid
            self._next_txid += 1
            self._active_txns.add(txid)
        return txid

    def _transaction_finished(self, txid):
        if not txid:
            return
        with self._txn_guard:
            self._active_txns.discard(txid)
        self._maybe_auto_checkpoint()

    def _maybe_auto_checkpoint(self):
        wal = self.wal
        if (
            wal is not None
            and not wal.closed
            and self._wal_checkpoint_every
            and wal.records_since_checkpoint >= self._wal_checkpoint_every
            and self.checkpoint()
        ):
            # The interpreter runs full garbage collections by allocation
            # count, and a warm request re-opening cached plans allocates
            # little: cyclic garbage (a graph built, loaded and dropped)
            # can then stay resident for a long time.  The periodic
            # checkpoint is the store's housekeeping point; collect there.
            gc.collect()

    def checkpoint(self):
        """Snapshot the catalog and truncate the log (durable mode only).

        Checkpoints are quiescent: the call is skipped (returns ``False``)
        while any explicit transaction is active, since the snapshot must
        not contain uncommitted rows.  Otherwise every table is
        write-locked, dirty pages are flushed, the snapshot is atomically
        replaced and the WAL resets.  Returns ``True`` when taken.
        """
        if self.wal is None or self.wal.closed:
            return False
        with self._txn_guard:
            if self._active_txns:
                return False
        from repro.relational import recovery

        reads, writes = self.locks.acquire((), self.catalog.table_names())
        try:
            self.wal.sync()
            recovery.write_snapshot(self, self.path)
            self.wal.reset(self.wal.last_lsn)
        finally:
            self.locks.release(reads, writes)
        return True

    def put_meta(self, key, value):
        """Durably store a key/value pair (non-transactional).

        *value* must be picklable.  Meta writes are logged under txid 0,
        so they survive a crash regardless of transaction outcomes.  The
        write holds :data:`META_LOCK`, so it reaches the commit point when
        its scope ends: on return, or when an enclosing transaction
        commits or rolls back.
        """
        with self.scope(writes=(META_LOCK,)):
            wal = self.wal
            if wal is not None and not wal.closed:
                wal.append("meta", (key, value), txid=0)
            self.meta[key] = value

    def get_meta(self, key, default=None):
        return self.meta.get(key, default)

    def wal_stats(self):
        """WAL counters, or ``None`` for an in-memory database."""
        return self.wal.stats() if self.wal is not None else None

    def close(self):
        """Checkpoint (if quiescent) and close the WAL.  Idempotent; a
        no-op for in-memory databases."""
        if self.wal is None or self.wal.closed:
            return
        self.checkpoint()
        self.wal.close()

    def table(self, name):
        """Direct access to a heap table (bulk loaders bypass SQL)."""
        return self.catalog.get_table(name)

    def storage_bytes(self):
        """Approximate total serialized size of all tables."""
        self.buffer_pool.clear()
        return sum(
            self.catalog.get_table(name).storage_bytes()
            for name in self.catalog.table_names()
        )

    # ------------------------------------------------------------------
    # lock analysis
    # ------------------------------------------------------------------
    def _lock_sets(self, statement):
        reads = set()
        writes = set()
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.statement
        if isinstance(statement, ast.SelectStatement):
            self._collect_tables(reads, statement)
        elif isinstance(statement, ast.InsertStatement):
            writes.add(statement.table.lower())
            if statement.query is not None:
                self._collect_tables(reads, statement.query)
            else:
                self._collect_tables(
                    reads, expressions=chain.from_iterable(statement.rows)
                )
        elif isinstance(statement, ast.UpdateStatement):
            writes.add(statement.table.lower())
            self._collect_tables(reads, expressions=[
                statement.where,
                *(expression for __, expression in statement.assignments),
            ])
        elif isinstance(statement, ast.DeleteStatement):
            writes.add(statement.table.lower())
            self._collect_tables(reads, expressions=[statement.where])
        elif isinstance(statement, ast.AnalyzeStatement):
            # the statistics persist through put_meta
            writes.add(META_LOCK)
            if statement.table is not None:
                reads.add(statement.table.lower())
            else:
                reads.update(self.catalog.table_names())
        elif isinstance(statement, ast.CreateIndexStatement):
            writes.add(statement.table.lower())
        elif isinstance(
            statement, (ast.CreateTableStatement, ast.DropTableStatement)
        ):
            writes.add(statement.name.lower())
        # only lock existing base tables (CTE names are statement-local)
        reads = {name for name in reads if self.catalog.has_table(name)}
        return reads, writes

    def _collect_tables(self, out, statement=None, expressions=()):
        """Add to *out* the tables *statement* (a SELECT) and the
        subqueries in *expressions* read."""
        cte_names = set()

        def visit_query(node):
            if isinstance(node, ast.SetOp):
                visit_query(node.left)
                visit_query(node.right)
                return
            if isinstance(node, ast.SelectStatement):  # a CTE's ORDER BY
                visit_statement(node)
                return
            if not isinstance(node, ast.Select):
                return
            for from_item in node.from_items:
                visit_from(from_item)
            for expression in self._statement_expressions(node):
                visit_expression(expression)

        def visit_from(item):
            if isinstance(item, ast.TableRef):
                if item.name.lower() not in cte_names:
                    out.add(item.name.lower())
            elif isinstance(item, ast.Join):
                visit_from(item.left)
                visit_from(item.right)

        def visit_expression(expression):
            if expression is None:
                return
            for node in expression.walk():
                plan = getattr(node, "plan", None)
                if isinstance(plan, ast.SelectStatement):
                    visit_statement(plan)

        def visit_statement(stmt):
            for cte in stmt.ctes:
                cte_names.add(cte.name.lower())
                visit_query(cte.query)
            visit_query(stmt.body)

        if statement is not None:
            visit_statement(statement)
        for expression in expressions:
            visit_expression(expression)

    @staticmethod
    def _statement_expressions(select):
        for item in select.items:
            if item.expr is not None:
                yield item.expr
        if select.where is not None:
            yield select.where
        yield from select.group_by

    # ------------------------------------------------------------------
    # statement dispatch
    # ------------------------------------------------------------------
    def _dispatch(self, prepared, params=None):
        statement = prepared.statement
        if isinstance(statement, ast.ExplainStatement):
            return self._run_explain(statement, params)
        if isinstance(statement, ast.SelectStatement):
            return ResultSet(*self._run_plan(prepared, params))
        if isinstance(statement, ast.InsertStatement):
            return self._run_insert(prepared, params)
        if isinstance(statement, ast.UpdateStatement):
            return self._run_update(prepared, params)
        if isinstance(statement, ast.DeleteStatement):
            return self._run_delete(prepared, params)
        if isinstance(statement, ast.CreateTableStatement):
            return self._run_create_table(statement, prepared.sql)
        if isinstance(statement, ast.CreateIndexStatement):
            return self._run_create_index(statement, prepared.sql)
        if isinstance(statement, ast.DropTableStatement):
            return self._run_drop_table(statement, prepared.sql)
        if isinstance(statement, ast.AnalyzeStatement):
            return self._run_analyze(statement)
        raise BindError(f"cannot execute {type(statement).__name__}")

    def _run_analyze(self, statement):
        """``ANALYZE [table]``: collect statistics, persist via WAL meta."""
        if statement.table is not None:
            name = statement.table.lower()
            if not self.catalog.has_table(name):
                raise BindError(f"unknown table {statement.table!r}")
            names = [name]
        else:
            names = self.catalog.table_names()
        rows = []
        for name in names:
            entry = self.statistics.analyze(
                self.catalog.get_table(name), self.schema_epoch
            )
            rows.append((name, entry.row_count, entry.sample_size))
        self.put_meta(META_STATS_KEY, self.statistics.to_meta())
        # cached plans were costed on the old statistics
        self.plan_cache.invalidate_all()
        return ResultSet(
            ["table_name", "row_count", "sample_size"], rows,
            rowcount=len(rows),
        )

    def _run_plan(self, prepared, params=None, apply=None):
        """Run *prepared* through a cached plan from its pool: what
        ``apply(plan)`` returns, ``(column names, rows)`` by default."""
        return prepared.plans.execute(
            params, lambda: self._plan(prepared.statement, params), apply
        )

    def _run_instrumented(self, statement, params=None):
        """Plan and execute a SELECT with full observability, on a private
        plan.

        Returns ``(plan, stats)``.  The planner runs each CTE as it plans
        it, so it is handed the stats object *before* planning — each
        CTE's sub-plan is instrumented and recorded in
        ``stats.cte_plans`` as it runs.  Buffer-pool and index counts are
        deltas of shared counters, so they include concurrent sessions'
        work; the lock wait is this thread's own, taken by
        :meth:`execute` before the statement ran.
        """
        stats = ExecutionStats()
        pool = self.buffer_pool
        indexes = self.catalog.indexes()
        hits0, misses0, evictions0 = pool.hits, pool.misses, pool.evictions
        probes0 = sum(index.probes for index in indexes)
        ranges0 = sum(index.range_scans for index in indexes)
        start = perf_counter()
        plan = self._plan(statement, params, stats)
        instrument_plan(plan.body, stats)
        __, rows = plan.execute(params)
        stats.elapsed_s = perf_counter() - start
        stats.rows_returned = len(rows)
        stats.page_hits = pool.hits - hits0
        stats.page_misses = pool.misses - misses0
        stats.page_evictions = pool.evictions - evictions0
        stats.index_probes = sum(index.probes for index in indexes) - probes0
        stats.index_range_scans = (
            sum(index.range_scans for index in indexes) - ranges0
        )
        stats.lock_wait_s = self.locks.last_wait()
        obs_context.current().statement = stats
        return plan.body, stats

    def _run_explain(self, statement, params=None):
        inner = statement.statement
        if not isinstance(inner, ast.SelectStatement):
            raise BindError(
                "EXPLAIN ANALYZE supports SELECT statements only"
                if statement.analyze
                else "EXPLAIN supports SELECT statements only"
            )
        if not statement.analyze:
            text = op.explain_plan(self._plan(inner, params).body)
            return ResultSet(["plan"], [(line,) for line in text.splitlines()])
        plan, stats = self._run_instrumented(inner, params)
        lines = render_explain_analyze(plan, stats)
        record = obs_context.current()
        if record.session_id is not None:
            peer = f" ({record.connection})" if record.connection else ""
            lines.append(f"Session: {record.session_id}{peer}")
        cache = self.plan_cache.stats()
        lines.append(
            f"Plan cache: "
            f"{'hit' if record.plan_cache_hit else 'miss'} "
            f"({cache['hits']} hits, {cache['misses']} misses, "
            f"{cache['invalidations']} invalidations, "
            f"{cache['size']} entries)"
        )
        return ResultSet(["plan"], [(line,) for line in lines])

    def _run_insert(self, prepared, params=None):
        statement = prepared.statement
        table = self.catalog.get_table(statement.table)
        __, rows = self._run_plan(prepared, params)
        if statement.columns is not None:
            rows = self._arrange_insert_rows(table, statement.columns, rows)
        # one call: the statement is all-or-nothing, and undo is recorded
        # by the table itself (see HeapTable.insert_many)
        return ResultSet(rowcount=len(table.insert_many(rows)))

    @staticmethod
    def _arrange_insert_rows(table, columns, rows):
        """Reorder *rows* from an INSERT column list into table order
        (unlisted columns NULL), a column at a time."""
        schema = table.schema
        names = [name.lower() for name in columns]
        for name in names:
            schema.position(name)  # BindError names an unknown column
            if names.count(name) > 1:
                raise BindError(
                    f"INSERT lists column {name!r} more than once"
                )
        for length in set(map(len, rows)):
            if length != len(names):
                raise BindError(
                    f"INSERT lists {len(names)} columns but {length} values"
                )
        if not rows:
            return rows
        listed = dict(zip(names, zip(*rows)))
        nulls = (None,) * len(rows)
        return list(zip(
            *[listed.get(column.name, nulls) for column in schema.columns]
        ))

    def _run_update(self, prepared, params=None):
        table = self.catalog.get_table(prepared.statement.table)
        rids, rows = self._run_plan(prepared, params, self._updated_rows)
        # all or nothing: a key an index refuses changes no row
        return ResultSet(rowcount=table.update_many(rids, rows))

    @staticmethod
    def _updated_rows(plan):
        """The RIDs an UPDATE's plan finds and their new rows.

        Every match is found, and every new row computed, before the
        first write: an index scan must not meet the rows this statement
        moves along its index, and a SET that raises changes nothing.
        """
        scan = plan.body
        matches = list(scan.rid_rows())
        width = len(scan.columns)
        rows = []
        for start in range(0, len(matches), BATCH_SIZE):
            block = ColumnBatch.from_rows(
                [row for __, row in matches[start:start + BATCH_SIZE]], width
            )
            new_columns = list(block.columns)
            for position, fn in plan.assignments:
                new_columns[position] = fn(block.columns, block.positions())
            rows.extend(zip(*new_columns))
        return [rid for rid, __ in matches], rows

    def _run_delete(self, prepared, params=None):
        statement = prepared.statement
        table = self.catalog.get_table(statement.table)
        if statement.where is None:
            return ResultSet(rowcount=table.truncate())
        # every match is found before the first delete, as in UPDATE
        rids = self._run_plan(prepared, params, lambda plan: [
            rid for rid, __ in plan.body.rid_rows()
        ])
        count = 0
        for rid in rids:
            if table.delete(rid) is not None:
                count += 1
        return ResultSet(rowcount=count)

    def _run_create_table(self, statement, sql):
        if statement.if_not_exists and self.catalog.has_table(statement.name):
            return ResultSet()
        columns = [
            Column(definition.name, ColumnType.from_name(definition.type_name))
            for definition in statement.columns
        ]
        schema = TableSchema(statement.name, columns, statement.primary_key)
        table = self.catalog.create_table(schema)
        if schema.primary_key is not None:
            self._create_pk_index(table, schema.primary_key)
        self._bump_schema_epoch()
        self._log_ddl(sql)
        return ResultSet()

    def _create_pk_index(self, table, column_name, populate=False):
        position = table.schema.position(column_name)
        fingerprint = ex.ColumnRef(None, column_name).fingerprint()
        index = HashIndex(
            f"{table.name}_pk",
            table.name,
            column_key_function(position),
            fingerprint,
            unique=True,
        )
        table.attach_index(index, populate=populate)

    def _log_ddl(self, sql):
        """Append the statement text of a successful DDL to the WAL."""
        wal = self.wal
        if wal is not None and wal.active:
            wal.append("ddl", sql, txid=0)

    def _run_create_index(self, statement, sql):
        table = self.catalog.get_table(statement.table)
        columns = [(None, name) for name in table.schema.column_names]
        resolver = op.make_resolver(columns)
        ctx = ex.CompileContext(resolver, self.functions)
        expressions = statement.expressions
        if all(isinstance(expression, ex.ColumnRef)
               for expression in expressions):
            positions = [
                resolver(expression.qualifier, expression.name)
                for expression in expressions
            ]
            key_function = (
                column_key_function(positions[0]) if len(positions) == 1
                else composite_key_function(positions)
            )
        else:
            key_function = ExpressionKey(
                [expression.compile_batch(ctx) for expression in expressions]
            )
        fingerprint = ",".join(
            expression.fingerprint() for expression in expressions
        )
        if statement.using == "sorted":
            index = SortedIndex(
                statement.name, table.name, key_function, fingerprint,
                statement.unique,
            )
        else:
            index = HashIndex(
                statement.name, table.name, key_function, fingerprint,
                statement.unique,
            )
        table.attach_index(index)
        # remember the statement so checkpoint snapshots can rebuild the
        # index (its key function holds compiled kernels, never serialized)
        index.ddl = sql
        self._bump_schema_epoch()
        self._log_ddl(sql)
        return ResultSet()

    def _run_drop_table(self, statement, sql):
        dropped = self.catalog.drop_table(statement.name)
        if not dropped and not statement.if_exists:
            raise BindError(f"unknown table {statement.name!r}")
        if dropped:
            self.statistics.forget(statement.name.lower())
            self._bump_schema_epoch()
            self._log_ddl(sql)
        return ResultSet()

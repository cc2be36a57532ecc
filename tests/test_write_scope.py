"""The write scope (``Database.scope``): the one way to write a table.

Two rules, both checked at runtime:

* a table of a :class:`Database` refuses a write unless the calling
  thread's scope holds that table's write lock — in memory and on a
  durable store alike;
* every autocommit write entry point reaches the WAL commit point before
  it returns, and inside a transaction the commit does: no record is
  left in the log's user-space buffer.
"""

import os
import threading

import pytest

from repro.core import SQLGraphStore
from repro.datasets.tinker import paper_figure_graph
from repro.relational import Database
from repro.relational.errors import TransactionError


@pytest.fixture(params=["memory", "durable"])
def database(request, tmp_path):
    if request.param == "memory":
        instance = Database()
    else:
        instance = Database(
            path=str(tmp_path / "db"), wal_fsync="off",
            wal_checkpoint_every=0,
        )
    instance.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, v STRING)")
    instance.execute("CREATE TABLE u (k INTEGER)")
    instance.execute("INSERT INTO t VALUES (1, 'a')")
    yield instance
    instance.close()


def rows(database):
    return sorted(database.execute("SELECT k, v FROM t").rows)


# ----------------------------------------------------------------------
# the table-side rule
# ----------------------------------------------------------------------
def test_insert_without_a_scope_raises(database):
    with pytest.raises(TransactionError, match="'t'"):
        database.table("t").insert((2, "b"))
    assert rows(database) == [(1, "a")]


def test_insert_under_a_read_lock_raises(database):
    with database.scope(reads=("t",)):
        with pytest.raises(TransactionError):
            database.table("t").insert((2, "b"))
    assert rows(database) == [(1, "a")]


def test_insert_under_another_tables_write_lock_raises(database):
    with database.scope(writes=("u",)):
        with pytest.raises(TransactionError):
            database.table("t").insert((2, "b"))
    assert rows(database) == [(1, "a")]


MUTATORS = {
    "insert_many": lambda table: table.insert_many([(2, "b")]),
    "update": lambda table: table.update((0, 0), (1, "z")),
    "update_many": lambda table: table.update_many([(0, 0)], [(1, "z")]),
    "delete": lambda table: table.delete((0, 0)),
    "truncate": lambda table: table.truncate(),
    "restore": lambda table: table.restore((0, 0), (1, "a")),
}


@pytest.mark.parametrize("mutate", MUTATORS.values(), ids=MUTATORS)
def test_every_mutator_checks_before_it_changes_anything(database, mutate):
    with pytest.raises(TransactionError):
        mutate(database.table("t"))
    assert rows(database) == [(1, "a")]


def test_nested_scope_joins_and_upgrades(database):
    """A scope opened inside another adds its locks to the outer one —
    a read lock becomes a write lock — and nothing is released until
    the outer scope exits."""
    table = database.table("t")
    with database.scope(reads=("t",)) as outer:
        with database.scope(writes=("t",)):
            table.insert((2, "b"))
        assert (outer.reads, outer.writes) == (set(), {"t"})
        table.insert((3, "c"))  # still held after the inner exit
    with pytest.raises(TransactionError):
        table.insert((4, "d"))
    assert rows(database) == [(1, "a"), (2, "b"), (3, "c")]


# ----------------------------------------------------------------------
# transactions are scopes
# ----------------------------------------------------------------------
def test_rolled_back_undo_runs_under_the_scope(database):
    with pytest.raises(RuntimeError):
        with database.transaction():
            database.execute("UPDATE t SET v = 'z' WHERE k = 1")
            database.execute("INSERT INTO t VALUES (2, 'b')")
            database.execute("INSERT INTO u VALUES (7)")
            database.execute("DELETE FROM u")
            with database.scope(writes=("t",)):
                database.table("t").insert((3, "c"))
            raise RuntimeError("boom")
    assert rows(database) == [(1, "a")]
    assert database.execute("SELECT COUNT(*) FROM u").scalar() == 0
    assert database.current_transaction() is None
    # every lock is gone: another thread can write t
    writer = threading.Thread(target=database.execute, args=(
        "INSERT INTO t VALUES (9, 'x')",
    ))
    writer.start()
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert rows(database) == [(1, "a"), (9, "x")]


def test_rollback_from_another_thread_runs_the_undo(database):
    """A transaction rolled back by a thread other than the one that
    wrote in it still undoes under its own locks."""
    opened = []

    def write():
        transaction = database.begin()
        database.execute("INSERT INTO t VALUES (2, 'b')")
        database.execute("UPDATE t SET v = 'z' WHERE k = 1")
        opened.append(transaction)

    writer = threading.Thread(target=write)
    writer.start()
    writer.join(timeout=10)
    assert not writer.is_alive()
    opened[0].rollback()
    assert rows(database) == [(1, "a")]


@pytest.mark.parametrize("finish", ["commit", "rollback"])
@pytest.mark.parametrize("durable", [False, True], ids=["memory", "durable"])
def test_finish_from_another_thread_frees_the_thread(tmp_path, durable,
                                                     finish):
    """A transaction committed or rolled back by another thread is no
    longer the scope of the thread that began it: that thread's next
    statement autocommits under txid 0, holds no lock afterwards, and
    survives a reopen."""
    path = str(tmp_path / "db") if durable else None
    database = Database(path=path, lock_timeout=1.0, wal_fsync="off")
    database.execute("CREATE TABLE t (k INTEGER)")
    transaction = database.begin()
    database.execute("INSERT INTO t VALUES (1)")
    finisher = threading.Thread(target=getattr(transaction, finish))
    finisher.start()
    finisher.join(timeout=10)
    assert not finisher.is_alive()
    assert database.current_transaction() is None
    database.execute("INSERT INTO t VALUES (2)")
    kept = [1, 2] if finish == "commit" else [2]
    read = []
    reader = threading.Thread(target=lambda: read.append(
        sorted(database.execute("SELECT k FROM t").column())
    ))
    reader.start()
    reader.join(timeout=10)
    assert read == [kept]
    database.begin().commit()
    database.close()
    if durable:
        database = Database(path=path)
        assert sorted(database.execute("SELECT k FROM t").column()) == kept
        database.close()


def test_begin_inside_a_scope_raises(database):
    with database.scope(writes=("t",)):
        with pytest.raises(TransactionError):
            database.begin()


# ----------------------------------------------------------------------
# every autocommit write is durable on return
# ----------------------------------------------------------------------
ENTRY_POINTS = {
    "add_vertex": lambda store: store.add_vertex(properties={"name": "x"}),
    "update_vertex": lambda store: store.set_vertex_property(1, "age", 30),
    "delete_vertex": lambda store: store.remove_vertex(2),
    "add_edge": lambda store: store.add_edge(1, 3, "likes"),
    "update_edge": lambda store: store.set_edge_property(7, "weight", 0.1),
    "delete_edge": lambda store: store.remove_edge(7),
    "sql_insert": lambda store: store.execute_sql(
        "INSERT INTO extra VALUES (1)"),
    "sql_update": lambda store: store.execute_sql(
        "UPDATE extra SET n = 2 WHERE n = 0"),
    "sql_delete": lambda store: store.execute_sql(
        "DELETE FROM extra WHERE n = 0"),
    "sql_create": lambda store: store.execute_sql(
        "CREATE TABLE other (n INTEGER)"),
    "sql_drop": lambda store: store.execute_sql("DROP TABLE extra"),
    "put_meta": lambda store: store.database.put_meta("k", "v"),
}


@pytest.fixture
def durable_store(tmp_path):
    store = SQLGraphStore(
        path=str(tmp_path / "store"), wal_fsync="off",
        wal_checkpoint_every=0,
    )
    store.load_graph(paper_figure_graph())
    store.execute_sql("CREATE TABLE extra (n INTEGER)")
    store.execute_sql("INSERT INTO extra VALUES (0)")
    yield store
    store.close()


def assert_drained(wal, records_before):
    assert wal.records > records_before, "the call logged nothing"
    assert os.path.getsize(wal.path) == wal._file.tell(), (
        "WAL records left in the user-space buffer"
    )


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_autocommit_write_reaches_the_commit_point(durable_store, call):
    wal = durable_store.database.wal
    before = wal.records
    call(durable_store)
    assert_drained(wal, before)


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS)
def test_transaction_commit_reaches_the_commit_point(durable_store, call):
    wal = durable_store.database.wal
    before = wal.records
    with durable_store.database.transaction():
        call(durable_store)
    assert_drained(wal, before)

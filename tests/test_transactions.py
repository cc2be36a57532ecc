"""Tests for transactions, undo rollback, and table locking."""

import random
import threading
import time

import pytest

from repro.relational import Database
from repro.relational.errors import LockTimeoutError, TransactionError
from repro.relational.locks import LockManager
from repro.relational.table import HeapTable
from tests.crashkit import assert_states_equal, database_state


class _Boom(RuntimeError):
    """Sentinel raised to abort a transaction under test."""


def make_db():
    database = Database()
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v STRING)")
    database.execute("INSERT INTO t VALUES (1, 'a'), (2, 'b')")
    return database


class TestTransactions:
    def test_commit(self):
        database = make_db()
        with database.transaction():
            database.execute("INSERT INTO t VALUES (3, 'c')")
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 3

    def test_rollback_insert(self):
        database = make_db()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("INSERT INTO t VALUES (3, 'c')")
                raise RuntimeError("boom")
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 2

    def test_rollback_delete(self):
        database = make_db()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("DELETE FROM t WHERE id = 1")
                raise RuntimeError("boom")
        assert database.execute("SELECT v FROM t WHERE id = 1").scalar() == "a"

    def test_rollback_update(self):
        database = make_db()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("UPDATE t SET v = 'z' WHERE id = 2")
                raise RuntimeError("boom")
        assert database.execute("SELECT v FROM t WHERE id = 2").scalar() == "b"

    def test_rollback_mixed_sequence(self):
        database = make_db()
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("INSERT INTO t VALUES (3, 'c')")
                database.execute("UPDATE t SET v = 'zzz' WHERE id = 3")
                database.execute("DELETE FROM t WHERE id = 1")
                raise RuntimeError("boom")
        rows = sorted(database.execute("SELECT id, v FROM t").rows)
        assert rows == [(1, "a"), (2, "b")]

    def test_rollback_restores_index_entries(self):
        database = make_db()
        database.execute("CREATE INDEX ix_v ON t (v)")
        with pytest.raises(RuntimeError):
            with database.transaction():
                database.execute("DELETE FROM t WHERE v = 'a'")
                raise RuntimeError("boom")
        assert database.execute(
            "SELECT id FROM t WHERE v = 'a'"
        ).rows == [(1,)]

    def test_nested_transactions_rejected(self):
        database = make_db()
        with pytest.raises(TransactionError):
            with database.transaction():
                with database.transaction():
                    pass

    def test_transaction_isolated_per_thread(self):
        database = make_db()
        errors = []

        def other_thread():
            try:
                assert database.current_transaction() is None
            except AssertionError as exc:  # pragma: no cover
                errors.append(exc)

        with database.transaction():
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join()
        assert not errors


class TestReadWriteLock:
    """Reader/writer semantics of one name in a :class:`LockManager`."""

    def test_multiple_readers(self):
        locks = LockManager(timeout=0.05)
        first = locks.acquire(["x"], ())
        second = locks.acquire(["x"], ())
        locks.release(*first)
        locks.release(*second)
        locks.release(*locks.acquire((), ["x"]))

    def test_writer_blocks_reader(self):
        locks = LockManager(timeout=0.05)
        held = locks.acquire((), ["x"])
        with pytest.raises(LockTimeoutError):
            locks.acquire(["x"], ())
        locks.release(*held)
        locks.release(*locks.acquire(["x"], ()))

    def test_reader_blocks_writer(self):
        locks = LockManager(timeout=0.05)
        held = locks.acquire(["x"], ())
        with pytest.raises(LockTimeoutError):
            locks.acquire((), ["x"])
        locks.release(*held)
        locks.release(*locks.acquire((), ["x"]))


class TestLockManager:
    def test_write_subsumes_read(self):
        manager = LockManager(timeout=0.05)
        reads, writes = manager.acquire(["T"], ["t"])
        assert (reads, writes) == (set(), {"t"})
        with pytest.raises(LockTimeoutError):
            manager.acquire(["t"], ())
        manager.release(reads, writes)
        manager.release(*manager.acquire(["t"], ()))

    def test_whole_set_or_nothing(self):
        """A set that cannot be granted whole takes none of it, so the
        free table of a timed-out request stays free."""
        manager = LockManager(timeout=0.05)
        held = manager.acquire((), ["b"])
        with pytest.raises(LockTimeoutError, match="'b'"):
            manager.acquire(["c"], ["a", "b"])
        manager.release(*manager.acquire((), ["a", "c"]))
        manager.release(*held)

    def test_holder_does_not_queue_behind_a_waiting_writer(self):
        """A writer waiting for x and y holds back new readers of y, but
        not the holder of x, whose read of y the writer is waiting on."""
        manager = LockManager(timeout=5)
        held = manager.acquire((), ["x"])
        writer = threading.Thread(
            target=lambda: manager.release(*manager.acquire((), ["x", "y"]))
        )
        writer.start()

        def writer_queued():
            try:
                with manager.cap(0.0):
                    manager.release(*manager.acquire(["y"], ()))
            except LockTimeoutError:
                return True
            return False

        deadline = time.monotonic() + 5
        while not writer_queued() and time.monotonic() < deadline:
            time.sleep(0.005)
        assert writer_queued()
        with manager.cap(0.2):
            more = manager.acquire(["y"], (), holding=held[1])
        manager.release(*more)
        manager.release(*held)
        writer.join(timeout=5)
        assert not writer.is_alive()

    def test_transaction_holds_locks_until_commit(self):
        database = make_db()
        release = threading.Event()
        acquired = threading.Event()

        def holder():
            with database.transaction():
                database.execute("UPDATE t SET v = 'x' WHERE id = 1")
                acquired.set()
                release.wait(timeout=2)

        worker = threading.Thread(target=holder)
        worker.start()
        acquired.wait(timeout=2)
        # while the transaction is open, a write from this thread must wait
        database.locks.timeout = 0.05
        with pytest.raises(LockTimeoutError):
            database.execute("UPDATE t SET v = 'y' WHERE id = 2")
        release.set()
        worker.join()
        database.locks.timeout = 2
        database.execute("UPDATE t SET v = 'y' WHERE id = 2")

    def test_concurrent_readers_proceed(self):
        database = make_db()
        results = []

        def reader():
            results.append(database.execute("SELECT COUNT(*) FROM t").scalar())

        threads = [threading.Thread(target=reader) for __ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert results == [2] * 8

    def test_concurrent_writers_serialize(self):
        database = make_db()

        def writer(n):
            for i in range(20):
                database.execute(
                    "INSERT INTO t VALUES (?, 'w')", [100 + n * 100 + i]
                )

        threads = [threading.Thread(target=writer, args=(n,)) for n in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 82


class TestLockUpgrade:
    """A transaction that read a table and then writes it upgrades its
    read lock in place: it never lets go of the table in between."""

    @staticmethod
    def counter_db(lock_timeout):
        database = Database(lock_timeout=lock_timeout)
        database.execute("CREATE TABLE c (id INTEGER PRIMARY KEY, n INTEGER)")
        database.execute("INSERT INTO c VALUES (1, 0)")
        return database

    def test_read_then_write_loses_no_update(self):
        """Two read-then-increment transactions: one commits, the other
        cannot upgrade while the first also holds the read lock, so it
        fails instead of writing a stale count."""
        database = self.counter_db(lock_timeout=5)
        both_read = threading.Barrier(2)
        outcomes = []
        guard = threading.Lock()

        def increment():
            try:
                with database.transaction():
                    n = database.execute(
                        "SELECT n FROM c WHERE id = 1"
                    ).scalar()
                    both_read.wait(timeout=5)
                    database.execute(
                        "UPDATE c SET n = ? WHERE id = 1", [n + 1]
                    )
            except LockTimeoutError:
                outcome = "timeout"
            else:
                outcome = "commit"
            with guard:
                outcomes.append(outcome)

        threads = [threading.Thread(target=increment) for __ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=20)
        assert not any(thread.is_alive() for thread in threads)
        assert sorted(outcomes) == ["commit", "timeout"]
        final = database.execute("SELECT n FROM c WHERE id = 1").scalar()
        assert final == outcomes.count("commit")

    def test_failed_upgrade_keeps_the_read_lock(self):
        database = self.counter_db(lock_timeout=0.2)
        reader_holds, reader_done = threading.Event(), threading.Event()

        def other_reader():
            with database.transaction():
                database.execute("SELECT n FROM c WHERE id = 1")
                reader_holds.set()
                reader_done.wait(timeout=10)

        reader = threading.Thread(target=other_reader)
        reader.start()
        transaction = database.begin()
        try:
            assert database.execute(
                "SELECT n FROM c WHERE id = 1"
            ).scalar() == 0
            assert reader_holds.wait(timeout=5)
            with pytest.raises(LockTimeoutError):
                database.execute("UPDATE c SET n = 1 WHERE id = 1")
            reader_done.set()
            reader.join(timeout=10)
            assert not reader.is_alive()
            raised = []

            def writer():
                try:
                    database.execute("UPDATE c SET n = 5 WHERE id = 1")
                except LockTimeoutError as exc:
                    raised.append(exc)

            other = threading.Thread(target=writer)
            other.start()
            other.join(timeout=10)
            assert not other.is_alive()
            assert len(raised) == 1
            assert database.execute(
                "SELECT n FROM c WHERE id = 1"
            ).scalar() == 0
        finally:
            reader_done.set()
            transaction.rollback()
        assert database.execute("SELECT n FROM c WHERE id = 1").scalar() == 0


def property_db():
    """A table with both a hash and a sorted secondary index, so rollback
    has to restore three index structures besides the heap."""
    database = Database()
    database.execute(
        "CREATE TABLE kv (k INTEGER PRIMARY KEY, v STRING, n INTEGER)"
    )
    database.execute("CREATE INDEX kv_n ON kv (n)")
    database.execute("CREATE INDEX kv_v ON kv (v) USING sorted")
    return database


class TestRollbackProperty:
    """Property-based: any interleaving of committed and aborted
    transactions must leave exactly the committed state — heap rows and
    every secondary index entry (compared as multisets via
    :func:`tests.crashkit.database_state`)."""

    SEEDS = [1, 7, 2026]

    def random_ops(self, rng, model, database):
        """Run 1-6 random DML statements, mirroring them into *model*."""
        for __ in range(rng.randint(1, 6)):
            roll = rng.random()
            if roll < 0.5 or not model:
                key = rng.randint(0, 10_000)
                while key in model:
                    key += 1
                value, n = f"v{rng.randint(0, 99)}", rng.randint(0, 9)
                database.execute(
                    "INSERT INTO kv VALUES (?, ?, ?)", [key, value, n]
                )
                model[key] = (value, n)
            elif roll < 0.8:
                key = rng.choice(sorted(model))
                value = f"u{rng.randint(0, 99)}"
                database.execute(
                    "UPDATE kv SET v = ? WHERE k = ?", [value, key]
                )
                model[key] = (value, model[key][1])
            else:
                key = rng.choice(sorted(model))
                database.execute("DELETE FROM kv WHERE k = ?", [key])
                del model[key]

    @pytest.mark.parametrize("seed", SEEDS)
    def test_random_interleavings_restore_state_exactly(self, seed):
        rng = random.Random(seed)
        database = property_db()
        model = {}
        for __ in range(25):
            if rng.random() < 0.5:
                with database.transaction():
                    self.random_ops(rng, model, database)
            else:
                snapshot = database_state(database)
                shadow = dict(model)  # aborted effects must not reach model
                with pytest.raises(_Boom):
                    with database.transaction():
                        self.random_ops(rng, shadow, database)
                        raise _Boom("abort")
                assert_states_equal(
                    database_state(database),
                    snapshot,
                    context=f"seed {seed}: abort left a trace",
                )
        rows = sorted(database.execute("SELECT k, v, n FROM kv").rows)
        assert rows == sorted((k, v, n) for k, (v, n) in model.items())

    @pytest.mark.parametrize("seed", SEEDS)
    def test_secondary_indexes_answer_queries_after_aborts(self, seed):
        """After a churn of aborts, point lookups through both secondary
        indexes agree with a full scan — no stale or missing entries."""
        rng = random.Random(seed + 1000)
        database = property_db()
        model = {}
        for __ in range(15):
            shadow = dict(model)
            aborted = rng.random() < 0.5
            if aborted:
                with pytest.raises(_Boom):
                    with database.transaction():
                        self.random_ops(rng, shadow, database)
                        raise _Boom("abort")
            else:
                with database.transaction():
                    self.random_ops(rng, model, database)
        for n in range(10):
            want = sorted(k for k, (__, kn) in model.items() if kn == n)
            got = sorted(
                k for (k,) in database.execute(
                    "SELECT k FROM kv WHERE n = ?", [n]
                ).rows
            )
            assert got == want, f"seed {seed}: index kv_n diverged at n={n}"
        for key, (value, __) in model.items():
            got = database.execute(
                "SELECT k FROM kv WHERE v = ?", [value]
            ).rows
            assert (key,) in got, f"seed {seed}: index kv_v lost k={key}"


class TestWholeTableDelete:
    """``DELETE FROM t`` drops pages and index contents in one step; its
    single undo entry must put all of it back."""

    ROWS = 600  # three pages

    def filled(self):
        database = property_db()
        database.execute("CREATE TABLE src (k INTEGER, v STRING, n INTEGER)")
        with database.scope(writes=("src",)):
            database.table("src").insert_many(
                [(k, f"v{k % 50:02d}", k % 7) for k in range(self.ROWS)]
            )
        database.execute("INSERT INTO kv SELECT k, v, n FROM src")
        return database

    def check_lookups(self, database):
        """Every index still answers: PK, hash and sorted range."""
        assert database.execute(
            "SELECT v FROM kv WHERE k = ?", [self.ROWS - 1]
        ).rows == [(f"v{(self.ROWS - 1) % 50:02d}",)]
        by_n = database.execute("SELECT k FROM kv WHERE n = 3").rows
        assert sorted(by_n) == [(k,) for k in range(3, self.ROWS, 7)]
        by_v = database.execute(
            "SELECT k FROM kv WHERE v >= 'v48' AND v <= 'v49'"
        ).rows
        assert sorted(by_v) == sorted(
            (k,) for k in range(self.ROWS) if k % 50 >= 48
        )

    def test_rollback_restores_rows_indexes_and_lookups(self):
        database = self.filled()
        before = database_state(database)
        kv = database.table("kv")
        pages = kv.page_count
        with pytest.raises(_Boom):
            with database.transaction():
                deleted = database.execute("DELETE FROM kv").rowcount
                assert deleted == self.ROWS
                assert kv.page_count == 0 and kv.live_rows == 0
                assert database.execute(
                    "SELECT COUNT(*) FROM kv WHERE n = 3"
                ).scalar() == 0
                raise _Boom("abort")
        assert_states_equal(
            database_state(database), before, context="whole-table delete"
        )
        assert kv.page_count == pages
        self.check_lookups(database)
        # the restored heap keeps appending where it left off
        database.execute("INSERT INTO kv VALUES (?, 'tail', 0)", [self.ROWS])
        assert kv.live_rows == self.ROWS + 1

    def test_rollback_of_delete_refill_delete(self):
        database = self.filled()
        before = database_state(database)
        with pytest.raises(_Boom):
            with database.transaction():
                database.execute("DELETE FROM kv")
                database.execute(
                    "INSERT INTO kv SELECT k + 1000, v, n FROM src "
                    "WHERE k < 300"
                )
                database.execute("DELETE FROM kv WHERE k = 1001")
                database.execute("DELETE FROM kv")
                database.execute("INSERT INTO kv VALUES (1, 'x', 1)")
                raise _Boom("abort")
        assert_states_equal(
            database_state(database), before, context="delete/refill/delete"
        )
        self.check_lookups(database)

    def test_commit_keeps_the_refill(self):
        database = self.filled()
        with database.transaction():
            database.execute("DELETE FROM kv")
            database.execute(
                "INSERT INTO kv SELECT k, v, n FROM src WHERE k < 10"
            )
        assert database.execute("SELECT COUNT(*) FROM kv").scalar() == 10
        assert database.table("kv").page_count == 1
        assert database.execute(
            "SELECT k FROM kv WHERE n = 3"
        ).rows == [(3,)]

    def test_index_created_after_the_delete_sees_restored_rows(self):
        database = self.filled()
        with pytest.raises(_Boom):
            with database.transaction():
                database.execute("DELETE FROM kv")
                database.execute("CREATE INDEX kv_late ON kv (n) USING sorted")
                raise _Boom("abort")
        assert len(database.table("kv").indexes["kv_late"]) == self.ROWS

    def test_pages_do_not_accumulate_over_refill_cycles(self):
        database = self.filled()
        kv = database.table("kv")
        pages = []
        for __ in range(5):
            database.execute("DELETE FROM kv")
            database.execute("INSERT INTO kv SELECT k, v, n FROM src")
            pages.append(kv.page_count)
        assert pages == [pages[0]] * 5
        assert pages[0] == -(-self.ROWS // 256)
        self.check_lookups(database)


class TestStoreRollback:
    """Rolling back graph procedures must restore the whole hybrid schema,
    including ``lid:`` spill rows in the secondary adjacency tables."""

    def test_rollback_restores_adjacency_spill_rows(self):
        from repro.core import SQLGraphStore
        from repro.datasets.random_graphs import random_property_graph

        store = SQLGraphStore()
        store.load_graph(
            random_property_graph(seed=5, n_vertices=10, n_edges=15)
        )
        database = store.database
        eid = store.add_edge(1, 2, "fanout")
        before = database_state(database)
        counts = (store.vertex_count(), store.edge_count())
        osa = database.table(store.schema.table_names["osa"])
        osa_rows_before = osa.live_rows

        with pytest.raises(_Boom):
            with database.transaction():
                vid = store.add_vertex(properties={"name": "temp"})
                # a second and third same-label edge migrate the primary
                # adjacency cell into OSA "lid:" spill rows
                store.add_edge(1, 3, "fanout")
                store.add_edge(1, vid, "fanout")
                assert osa.live_rows > osa_rows_before
                store.set_vertex_property(2, "kind", "changed")
                store.remove_edge(eid)
                raise _Boom("abort")

        assert_states_equal(
            database_state(database), before, context="store rollback"
        )
        assert (store.vertex_count(), store.edge_count()) == counts
        assert store.get_edge(eid) is not None

    def test_committed_spill_rows_survive_following_abort(self):
        from repro.core import SQLGraphStore
        from repro.datasets.random_graphs import random_property_graph

        store = SQLGraphStore()
        store.load_graph(
            random_property_graph(seed=6, n_vertices=8, n_edges=10)
        )
        database = store.database
        with database.transaction():
            store.add_edge(1, 2, "rel")
            store.add_edge(1, 3, "rel")  # commits real spill rows
        committed = database_state(database)
        with pytest.raises(_Boom):
            with database.transaction():
                store.add_edge(1, 4, "rel")  # extends the same spill list
                raise _Boom("abort")
        assert_states_equal(
            database_state(database), committed, context="post-commit abort"
        )


class TestRollbackLockRelease:
    """Regression: a failing undo step must still release table locks
    (and unregister the thread's transaction)."""

    def test_locks_released_when_undo_raises(self, monkeypatch):
        database = make_db()
        original_restore = HeapTable.restore

        def broken_restore(self, rid, row):
            raise OSError("simulated undo failure")

        monkeypatch.setattr(HeapTable, "restore", broken_restore)
        with pytest.raises(OSError, match="simulated undo failure"):
            with database.transaction():
                database.execute("DELETE FROM t WHERE id = 1")
                raise _Boom("abort")
        monkeypatch.setattr(HeapTable, "restore", original_restore)

        # the session is not wedged: the thread has no dangling
        # transaction and fresh writers can take the table lock
        assert database.current_transaction() is None
        database.locks.timeout = 0.2
        database.execute("INSERT INTO t VALUES (9, 'ok')")
        assert database.execute(
            "SELECT v FROM t WHERE id = 9"
        ).scalar() == "ok"

    def test_failed_undo_marks_transaction_finished(self, monkeypatch):
        database = make_db()
        monkeypatch.setattr(
            HeapTable, "restore",
            lambda self, rid, row: (_ for _ in ()).throw(OSError("boom")),
        )
        transaction = None
        try:
            with database.transaction() as txn:
                transaction = txn
                database.execute("DELETE FROM t WHERE id = 2")
                raise _Boom("abort")
        except (OSError, _Boom):
            pass
        assert transaction is not None and not transaction.active
        with pytest.raises(TransactionError):
            transaction.commit()

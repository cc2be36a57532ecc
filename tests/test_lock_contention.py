"""Lock-timeout configuration and multi-threaded contention.

Satellite coverage for the serving layer: ``REPRO_LOCK_TIMEOUT_MS``
resolution, the per-thread :meth:`LockManager.cap` used by statement
timeouts, a stress test that provokes real ``LockTimeoutError`` under
writer contention, and the retryable ``LOCK_TIMEOUT`` wire error a remote
client sees for the same situation.
"""

import random
import sys
import threading
import time

import pytest

from repro.cli import build_store
from repro.client import SQLGraphClient
from repro.relational import Database
from repro.relational.errors import LockTimeoutError
from repro.relational.locks import (
    DEFAULT_LOCK_TIMEOUT_S,
    LockManager,
    resolve_lock_timeout,
)
from repro.server import SQLGraphServer, WireError
from repro.server import protocol


class TestTimeoutResolution:
    def test_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_LOCK_TIMEOUT_MS", raising=False)
        assert resolve_lock_timeout() == DEFAULT_LOCK_TIMEOUT_S

    def test_env_is_milliseconds(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT_MS", "1500")
        assert resolve_lock_timeout() == 1.5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT_MS", "1500")
        assert resolve_lock_timeout(0.2) == 0.2

    @pytest.mark.parametrize("raw", ["soon", "2s", "-1", "nan"])
    def test_malformed_env_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT_MS", raw)
        with pytest.raises(ValueError, match=f"REPRO_LOCK_TIMEOUT_MS={raw!r}"):
            resolve_lock_timeout()

    def test_lock_manager_reads_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT_MS", "250")
        assert LockManager().timeout == 0.25
        # explicit constructor values still win (test suite relies on it)
        assert LockManager(timeout=0.2).timeout == 0.2

    def test_database_inherits_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_LOCK_TIMEOUT_MS", "125")
        database = Database()
        assert database.locks.timeout == 0.125


class TestPerThreadCap:
    def test_cap_tightens_and_restores(self):
        locks = LockManager(timeout=30.0)
        assert locks.effective_timeout() == 30.0
        with locks.cap(0.5):
            assert locks.effective_timeout() == 0.5
            with locks.cap(0.1):
                assert locks.effective_timeout() == 0.1
            assert locks.effective_timeout() == 0.5
        assert locks.effective_timeout() == 30.0

    def test_cap_none_is_a_no_op(self):
        locks = LockManager(timeout=30.0)
        with locks.cap(None):
            assert locks.effective_timeout() == 30.0

    def test_cap_never_loosens(self):
        locks = LockManager(timeout=0.2)
        with locks.cap(10.0):
            assert locks.effective_timeout() == 0.2

    def test_cap_is_thread_local(self):
        locks = LockManager(timeout=30.0)
        seen = {}
        ready = threading.Event()

        def other():
            ready.wait(timeout=5)
            seen["other"] = locks.effective_timeout()

        thread = threading.Thread(target=other)
        thread.start()
        with locks.cap(0.25):
            ready.set()
            thread.join(timeout=5)
            seen["capped"] = locks.effective_timeout()
        assert seen == {"other": 30.0, "capped": 0.25}

    def test_cap_bounds_the_whole_acquire(self):
        """One budget per acquire: a statement waiting on two locks gives
        up once the cap is spent, though one of them frees up on the way."""
        locks = LockManager(timeout=30.0)
        held_a = locks.acquire((), ("a",))
        held_b = locks.acquire((), ("b",))
        releaser = threading.Timer(0.35, locks.release, args=held_a)
        releaser.start()
        started = time.perf_counter()
        try:
            with locks.cap(0.4), pytest.raises(LockTimeoutError, match="'b'"):
                locks.acquire(("a", "b"), ())
            elapsed = time.perf_counter() - started
        finally:
            releaser.join(timeout=5)
            locks.release(*held_b)
        assert elapsed < 0.4 + 0.2


class TestLockTableStress:
    def test_random_lock_sets_never_overlap_a_writer(self):
        """Eight threads take random read/write sets over four names at a
        short switch interval, crossing reads and writes in every order:
        a writer never shares its table with another holder, and every
        request is granted well inside the lock timeout."""
        locks = LockManager(timeout=10.0)
        names = ("a", "b", "c", "d")
        occupancy = {name: [0, 0] for name in names}  # readers, writers
        guard = threading.Lock()
        overlaps = []
        failures = []
        finished = []

        def occupy(reads, writes, step):
            with guard:
                for name in writes:
                    if occupancy[name] != [0, 0]:
                        overlaps.append((name, "w", list(occupancy[name])))
                    occupancy[name][1] += step
                for name in reads:
                    if occupancy[name][1]:
                        overlaps.append((name, "r", list(occupancy[name])))
                    occupancy[name][0] += step

        def worker(seed):
            rng = random.Random(seed)
            try:
                for __ in range(300):
                    writes = {name for name in names if rng.random() < 0.25}
                    reads = {name for name in names if rng.random() < 0.4}
                    reads, writes = locks.acquire(reads, writes)
                    occupy(reads, writes, 1)
                    time.sleep(0)
                    with guard:
                        for name in writes:
                            occupancy[name][1] -= 1
                        for name in reads:
                            occupancy[name][0] -= 1
                    locks.release(reads, writes)
            except LockTimeoutError as exc:
                failures.append(exc)
            else:
                finished.append(seed)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=worker, args=(seed,))
                       for seed in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert overlaps == []
        assert sorted(finished) == list(range(8))
        # nothing is left held: the whole set is free at once
        with locks.cap(0.0):
            locks.release(*locks.acquire((), names))


class TestContentionStress:
    def test_writer_contention_provokes_lock_timeout(self):
        """Many writers on one table with a tiny budget: some must time out,
        and every timeout must leave the database consistent."""
        database = Database(lock_timeout=0.05)
        database.execute("CREATE TABLE hot (id INTEGER PRIMARY KEY, v INTEGER)")
        threads = 6
        per_thread = 5
        timeouts = []
        committed = []
        guard = threading.Lock()
        barrier = threading.Barrier(threads)

        def worker(base):
            barrier.wait(timeout=10)
            for i in range(per_thread):
                key = base * per_thread + i
                try:
                    with database.transaction():
                        database.execute(
                            "INSERT INTO hot VALUES (?, ?)", [key, base]
                        )
                        time.sleep(0.02)  # hold the write lock
                except LockTimeoutError:
                    with guard:
                        timeouts.append(key)
                else:
                    with guard:
                        committed.append(key)

        pool = [threading.Thread(target=worker, args=(n,))
                for n in range(threads)]
        for thread in pool:
            thread.start()
        for thread in pool:
            thread.join(timeout=60)
        assert timeouts, "contention never produced a LockTimeoutError"
        assert committed, "no writer ever got through"
        rows = database.execute("SELECT id FROM hot").rows
        assert sorted(row[0] for row in rows) == sorted(committed)

    def test_timed_out_statement_keeps_connection_usable(self):
        database = Database(lock_timeout=0.05)
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        locked = threading.Event()
        release = threading.Event()

        def holder():
            with database.transaction():
                database.execute("INSERT INTO t VALUES (?)", [1])
                locked.set()
                release.wait(timeout=10)

        thread = threading.Thread(target=holder)
        thread.start()
        assert locked.wait(timeout=5)
        try:
            with pytest.raises(LockTimeoutError):
                database.execute("INSERT INTO t VALUES (?)", [2])
        finally:
            release.set()
            thread.join(timeout=10)
        # lock released; the same thread can write again
        database.execute("INSERT INTO t VALUES (?)", [3])
        assert len(database.execute("SELECT id FROM t").rows) == 2


class TestDmlSubqueryLocks:
    """A subquery inside UPDATE / DELETE / INSERT ... VALUES reads its
    tables under a shared lock, as the same read in a SELECT does."""

    @pytest.mark.parametrize("sql", [
        "DELETE FROM a WHERE x IN (SELECT y FROM b)",
        "UPDATE a SET x = 0 WHERE x IN (SELECT y FROM b)",
        "UPDATE a SET x = (CASE WHEN x IN (SELECT y FROM b) THEN 0 "
        "ELSE x END) WHERE x = 2",
        "INSERT INTO a VALUES (CASE WHEN 1 IN (SELECT y FROM b) THEN 3 END)",
    ])
    def test_waits_for_uncommitted_write(self, sql):
        database = Database(lock_timeout=0.1)
        database.execute("CREATE TABLE a (x INTEGER)")
        database.execute("CREATE TABLE b (y INTEGER)")
        database.execute("INSERT INTO a VALUES (1), (2)")
        database.execute("INSERT INTO b VALUES (1)")
        written, done = threading.Event(), threading.Event()

        def writer():
            transaction = database.begin()
            database.execute("INSERT INTO b VALUES (2)")
            written.set()
            done.wait(timeout=10)
            transaction.rollback()

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            assert written.wait(timeout=5)
            with pytest.raises(LockTimeoutError):
                database.execute("SELECT y FROM b")
            with pytest.raises(LockTimeoutError):
                database.execute(sql)
        finally:
            done.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert sorted(database.execute("SELECT x FROM a").column()) == [1, 2]
        assert database.execute("SELECT y FROM b").rows == [(1,)]


def test_ordered_cte_reads_its_table_under_a_lock():
    """A CTE with its own ORDER BY / LIMIT (the Gremlin range and order
    pipes' shape) locks the tables it reads like any other CTE."""
    database = Database(lock_timeout=0.1)
    database.execute("CREATE TABLE b (y INTEGER)")
    transaction = database.begin()
    database.execute("INSERT INTO b VALUES (2)")
    raised = []

    def read():
        try:
            database.execute(
                "WITH x AS (SELECT y FROM b ORDER BY y LIMIT 1) "
                "SELECT y FROM x"
            )
        except LockTimeoutError as exc:
            raised.append(exc)

    reader = threading.Thread(target=read)
    reader.start()
    reader.join(timeout=10)
    transaction.rollback()
    assert len(raised) == 1


class TestNoGlobalExecutorMode:
    """Regression: planning a one-row CTE used to flip a process-global
    executor switch with a non-atomic save/restore, so concurrent point
    reads could leave every session's planner in row mode for good."""

    def test_concurrent_point_reads_leave_no_mode_behind(self):
        store = build_store("tinker")
        query = "g.v(1).out('knows').name"
        expected = store.run(query)
        results = {}

        def reader(slot):
            results[slot] = [store.run(query) for __ in range(3000)]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=reader, args=(slot,))
                for slot in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        for slot in range(4):
            assert all(got == expected for got in results[slot]), slot
        plan = "\n".join(
            row[0] for row in store.database.execute(
                "EXPLAIN ANALYZE SELECT vid FROM va "
                "WHERE JSON_VAL(attr, 'age') > 28"
            ).rows
        )
        assert "batches=" in plan


class TestConcurrentExplainAnalyze:
    """EXPLAIN ANALYZE flips nothing process-wide: concurrent reports each
    describe their own statement."""

    def test_every_report_is_whole(self):
        database = Database()
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
        for i in range(20):
            database.execute("INSERT INTO t VALUES (?, ?)", [i, i])
        sql = "EXPLAIN ANALYZE SELECT v FROM t WHERE id = 5"
        summary = ("Execution:", "Buffer pool:", "Indexes:", "Locks:",
                   "Estimates:", "Plan cache:")
        bad = []

        def explainer():
            for __ in range(500):
                lines = [row[0] for row in database.execute(sql).rows]
                scans = [line for line in lines if "IndexEqScan" in line]
                if not (
                    len(scans) == 1
                    and "actual_rows=1 " in scans[0]
                    and all(any(line.startswith(prefix) for line in lines)
                            for prefix in summary)
                ):
                    bad.append(lines)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=explainer) for __ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
        assert bad == []


class TestWireLockTimeout:
    @pytest.fixture
    def server(self):
        store = build_store("tinker")
        store.database.locks.timeout = 0.1  # tight budget for the test
        server = SQLGraphServer(store, port=0, max_workers=4,
                                max_queue=4).start()
        yield server
        server.shutdown(drain_timeout_s=1.0)

    def test_remote_lock_timeout_is_retryable(self, server):
        with SQLGraphClient("127.0.0.1", server.port) as holder, \
                SQLGraphClient("127.0.0.1", server.port, retries=0) as victim:
            holder.begin()
            holder.sql("INSERT INTO va VALUES (?, ?)", [70001, {"k": "v"}])
            with pytest.raises(WireError) as excinfo:
                victim.sql("INSERT INTO va VALUES (?, ?)", [70002, {"k": "v"}])
            assert excinfo.value.code == protocol.LOCK_TIMEOUT
            assert excinfo.value.retryable is True
            holder.rollback()
            # after release the same statement goes through
            victim.sql("INSERT INTO va VALUES (?, ?)", [70002, {"k": "v"}])
            assert victim.sql(
                "SELECT COUNT(*) FROM va WHERE vid = 70002"
            ).scalar() == 1

    def test_statement_timeout_elevates_lock_timeout(self, server):
        with SQLGraphClient("127.0.0.1", server.port) as holder, \
                SQLGraphClient("127.0.0.1", server.port, retries=0) as victim:
            victim.set_statement_timeout(30)  # 30ms < 100ms lock budget
            holder.begin()
            holder.sql("INSERT INTO va VALUES (?, ?)", [70003, {"k": "v"}])
            before = server.statement_timeouts
            with pytest.raises(WireError) as excinfo:
                victim.sql("INSERT INTO va VALUES (?, ?)", [70004, {"k": "v"}])
            assert excinfo.value.code == protocol.STATEMENT_TIMEOUT
            assert excinfo.value.retryable is True
            assert server.statement_timeouts > before
            holder.rollback()

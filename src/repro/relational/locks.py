"""Table-level reader/writer locks.

The engine uses strict two-phase locking at table granularity: statements in
autocommit mode lock for their own duration; statements inside an explicit
transaction hold locks until commit/rollback.  Lock acquisition is globally
ordered by table name, which makes deadlock impossible for single-statement
lock sets and for transactions that pre-declare their tables.
"""

from __future__ import annotations

import threading
from time import perf_counter

from repro.relational.errors import LockTimeoutError
from repro.relational.settings import env_number

#: default lock-wait budget when neither the constructor nor the
#: environment says otherwise, in seconds
DEFAULT_LOCK_TIMEOUT_S = 30.0


def resolve_lock_timeout(explicit=None):
    """Lock-wait timeout in seconds.

    ``explicit`` (seconds) wins when given; otherwise the
    ``REPRO_LOCK_TIMEOUT_MS`` environment variable decides (milliseconds;
    a malformed or negative value raises ``ValueError``), falling back to
    :data:`DEFAULT_LOCK_TIMEOUT_S`.
    """
    if explicit is not None:
        return max(0.0, float(explicit))
    return env_number(
        "REPRO_LOCK_TIMEOUT_MS", DEFAULT_LOCK_TIMEOUT_S * 1000.0
    ) / 1000.0


class ReadWriteLock:
    """A classic reader/writer lock with writer preference."""

    def __init__(self, name=""):
        self.name = name
        self._condition = threading.Condition()
        self._readers = 0  # guarded-by: _condition
        self._writer = False  # guarded-by: _condition
        self._waiting_writers = 0  # guarded-by: _condition

    def _wait(self, ready, timeout, mode):  # holds: _condition
        """Block until *ready()*; returns the seconds waited.  The clock is
        read only when the lock is not free at once."""
        if ready():
            return 0.0
        started = perf_counter()
        if not self._condition.wait_for(ready, timeout=timeout):
            raise LockTimeoutError(f"{mode} lock timeout on {self.name!r}")
        return perf_counter() - started

    def acquire_read(self, timeout=None):
        """Take the lock shared; returns the seconds spent waiting."""
        with self._condition:
            waited = self._wait(
                lambda: not self._writer and self._waiting_writers == 0,
                timeout, "read",
            )
            self._readers += 1
            return waited

    def release_read(self):
        with self._condition:
            self._readers -= 1
            if self._readers == 0:
                self._condition.notify_all()

    def acquire_write(self, timeout=None):
        """Take the lock exclusive; returns the seconds spent waiting."""
        with self._condition:
            self._waiting_writers += 1
            try:
                waited = self._wait(
                    lambda: not self._writer and self._readers == 0,
                    timeout, "write",
                )
                self._writer = True
                return waited
            finally:
                self._waiting_writers -= 1

    def release_write(self):
        with self._condition:
            self._writer = False
            self._condition.notify_all()


class LockManager:
    """Owns one ReadWriteLock per table plus a catalog lock.

    :param timeout: lock-wait budget in seconds; ``None`` resolves from
        the ``REPRO_LOCK_TIMEOUT_MS`` environment variable (see
        :func:`resolve_lock_timeout`).
    """

    def __init__(self, timeout=None):
        self.timeout = resolve_lock_timeout(timeout)
        self._guard = threading.Lock()
        self._locks: dict[str, ReadWriteLock] = {}  # guarded-by: _guard
        self._local = threading.local()
        self.catalog_lock = ReadWriteLock("<catalog>")

    def cap(self, seconds):
        """``with locks.cap(s):`` — bound this thread's lock waits to *s*.

        Used by the serving layer's statement timeouts: a session with a
        1-second statement budget must not sit in a 30-second lock queue.
        The tighter of the cap and the manager timeout wins; ``None`` is a
        no-op context.
        """
        manager = self

        class _Capped:
            def __enter__(self):
                self.previous = getattr(manager._local, "cap", None)
                manager._local.cap = seconds
                return manager

            def __exit__(self, exc_type, exc, tb):
                manager._local.cap = self.previous
                return False

        return _Capped()

    def last_wait(self):
        """Seconds this thread's most recent :meth:`acquire` waited — the
        ``Locks:`` line of EXPLAIN ANALYZE, whose locks are taken first."""
        return getattr(self._local, "wait_s", 0.0)

    def effective_timeout(self):
        """The manager timeout, tightened by any per-thread cap."""
        cap = getattr(self._local, "cap", None)
        if cap is None:
            return self.timeout
        return min(self.timeout, cap)

    def lock_for(self, table_name):
        with self._guard:
            lock = self._locks.get(table_name)
            if lock is None:
                lock = self._locks[table_name] = ReadWriteLock(table_name)
            return lock

    def acquire(self, read_tables, write_tables):
        """Acquire locks for a statement; returns an opaque release token.

        Write locks subsume read locks on the same table.  Locks are taken in
        global name order to avoid deadlock.  :meth:`effective_timeout`
        bounds the whole call, not each lock: a lock may wait only for
        what the waits before it left of that budget.
        """
        writes = {name.lower() for name in write_tables}
        reads = {name.lower() for name in read_tables} - writes
        plan = sorted(
            [(name, "w") for name in writes] + [(name, "r") for name in reads]
        )
        timeout = self.effective_timeout()
        acquired = []
        waited = 0.0
        try:
            for name, mode in plan:
                lock = self.lock_for(name)
                left = max(0.0, timeout - waited)
                if mode == "w":
                    waited += lock.acquire_write(left)
                else:
                    waited += lock.acquire_read(left)
                acquired.append((lock, mode))
        except Exception:
            self.release(acquired)
            raise
        self._local.wait_s = waited
        return acquired

    @staticmethod
    def release(token):
        for lock, mode in reversed(token):
            if mode == "w":
                lock.release_write()
            else:
                lock.release_read()

"""Table-level reader/writer locks: one lock table.

The engine uses strict two-phase locking at table granularity: statements in
autocommit mode lock for their own duration; statements inside an explicit
transaction hold locks until commit/rollback.  One :class:`LockManager`
keeps every table's readers, writer and waiting writers under one
condition variable, and grants a statement's whole lock set at once or
waits for all of it, so no acquisition order is needed: a request that
holds nothing while it waits cannot deadlock.

Writers have preference: a waiting writer holds back the readers of its
tables that arrive after it.  A caller that already holds locks (an
explicit transaction, or a scope nested in one) names them as *holding*:
it queues behind no writer, which may wait for what it holds, and a table
it holds for read and now writes is upgraded in place, keeping the read
lock until the write lock is granted.  Two holders upgrading one table can
never both be granted, so the second fails at once; other deadlocks
between transactions end in the lock timeout.
"""

from __future__ import annotations

import threading
from itertools import chain, count
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


class _Entry:
    """One table's row of the lock table: its ``readers`` and ``writer``,
    the arrival tickets of the writers waiting for it (``queue``), how
    many requests of either kind wait for it (``waiters``), and whether a
    holder of a read lock on it waits to write it (``upgrading``).  A row
    nothing holds or waits for is dropped."""

    __slots__ = ("readers", "writer", "queue", "waiters", "upgrading")

    def __init__(self):
        self.readers = 0
        self.writer = False
        self.queue = []
        self.waiters = 0
        self.upgrading = False


class _Cap:
    """The context :meth:`LockManager.cap` returns."""

    __slots__ = ("manager", "seconds", "previous")

    def __init__(self, manager, seconds):
        self.manager = manager
        self.seconds = seconds

    def __enter__(self):
        local = self.manager._local
        self.previous = getattr(local, "cap", None)
        local.cap = self.seconds
        return self.manager

    def __exit__(self, exc_type, exc, tb):
        self.manager._local.cap = self.previous
        return False


class LockManager:
    """The lock table: shared and exclusive locks on names (tables).

    :param timeout: lock-wait budget in seconds; ``None`` resolves from
        the ``REPRO_LOCK_TIMEOUT_MS`` environment variable (see
        :func:`resolve_lock_timeout`).
    """

    def __init__(self, timeout=None):
        self.timeout = resolve_lock_timeout(timeout)
        self._condition = threading.Condition()
        self._table: dict[str, _Entry] = {}  # guarded-by: _condition
        self._arrivals = count(1)  # guarded-by: _condition
        self._local = threading.local()

    def cap(self, seconds):
        """``with locks.cap(s):`` — bound this thread's lock waits to *s*.

        Used by the serving layer's statement timeouts: a session with a
        1-second statement budget must not sit in a 30-second lock queue.
        The tighter of the cap and the manager timeout wins; ``None`` is a
        no-op context.
        """
        return _Cap(self, seconds)

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

    def acquire(self, reads, writes, holding=()):
        """Lock *reads* shared and *writes* exclusive, all at once.

        Returns the normalized ``(reads, writes)`` sets (lower-case; a
        table in both is only written), which :meth:`release` gives back.
        *holding* names the tables the caller already holds; a table in
        *writes* and *holding* is held for read and is upgraded in place.
        :meth:`effective_timeout` bounds the whole call, and a timeout
        raises :class:`LockTimeoutError` naming a table still blocked.
        """
        writes = {name.lower() for name in writes}
        reads = {name.lower() for name in reads}.difference(writes)
        upgrades = writes.intersection(holding) if holding else ()
        waited = 0.0
        with self._condition:
            # a holder (ticket 0) queues behind nobody
            ticket = 0 if holding else next(self._arrivals)
            if self._blocked(reads, writes, upgrades, ticket) is not None:
                waited = self._wait(reads, writes, upgrades, ticket)
            table = self._table
            for name in writes:
                entry = table.setdefault(name, _Entry())
                if name in upgrades:
                    entry.readers -= 1  # the read lock becomes the write
                entry.writer = True
            for name in reads:
                table.setdefault(name, _Entry()).readers += 1
        self._local.wait_s = waited
        return reads, writes

    def release(self, reads, writes):
        """Give back the locks of an :meth:`acquire` (or of several: a
        holder's union of them)."""
        with self._condition:
            table = self._table
            wake = False
            for name in writes:
                entry = table[name]
                entry.writer = False
                wake = wake or entry.waiters > 0
            for name in reads:
                entry = table[name]
                entry.readers -= 1
                # a writer may go at 0 readers, an upgrader at 1
                wake = wake or (entry.waiters > 0 and entry.readers <= 1)
            self._drop_idle(chain(reads, writes))
            if wake:
                self._condition.notify_all()

    def _drop_idle(self, names):  # holds: _condition
        """Drop the rows of *names* that nothing holds or waits for."""
        table = self._table
        for name in names:
            entry = table[name]
            if not (entry.readers or entry.writer or entry.waiters):
                del table[name]

    def _blocked(self, reads, writes, upgrades, ticket):  # holds: _condition
        """The first table of the request that cannot be granted now, or
        ``None`` when the whole set can."""
        table = self._table
        for name in writes:
            entry = table.get(name)
            if entry is not None and (
                entry.writer or entry.readers > (name in upgrades)
            ):
                return name
        for name in reads:
            entry = table.get(name)
            if entry is not None and (
                entry.writer or (entry.queue and min(entry.queue) < ticket)
            ):
                return name
        return None

    def _wait(self, reads, writes, upgrades, ticket):  # holds: _condition
        """Wait, queued on every table of the request, until the whole set
        can be granted; returns the seconds waited."""
        table = self._table
        for name in upgrades:
            if table[name].upgrading:
                raise LockTimeoutError(
                    f"write lock on {name!r} is already being upgraded by "
                    "another holder"
                )
        for name in chain(reads, writes):
            table.setdefault(name, _Entry()).waiters += 1
        for name in writes:
            table[name].queue.append(ticket)
        for name in upgrades:
            table[name].upgrading = True
        started = perf_counter()
        granted = False
        try:
            granted = self._condition.wait_for(
                lambda: self._blocked(reads, writes, upgrades, ticket) is None,
                self.effective_timeout(),
            )
            if not granted:
                name = self._blocked(reads, writes, upgrades, ticket)
                mode = "write" if name in writes else "read"
                raise LockTimeoutError(f"{mode} lock timeout on {name!r}")
        finally:
            for name in upgrades:
                table[name].upgrading = False
            for name in writes:
                table[name].queue.remove(ticket)
            for name in chain(reads, writes):
                table[name].waiters -= 1
            if not granted:
                self._drop_idle(chain(reads, writes))
                if writes:  # a reader this writer held back may go now
                    self._condition.notify_all()
        return perf_counter() - started

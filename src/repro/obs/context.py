"""The calling thread's request record: one home for "what did my last
request do".

Each layer writes its own field where it finishes its work: the store
(``query``), the translator (``trace``), the engine (``plan_cache_hit``,
and ``statement`` for ``EXPLAIN ANALYZE``) and the analytics drivers
(``analytics``).  Readers — the server's ``gremlin`` / ``stats`` /
``analytics`` ops, the shell's ``:stats``, ``EXPLAIN ANALYZE`` — take
:func:`current`.

The serving layer (:mod:`repro.server`) runs each client session inside
:class:`session_scope`, which installs a fresh record stamped with the
session id and peer address and drops it when the session ends.  A pooled
worker thread therefore never shows one client the previous client's
last request, and attribution is stored once, on the record, instead of
on every stats object.  Embedded use never enters a scope: the thread's
record has no session, and "last" means the thread's last request on any
store.
"""

from __future__ import annotations

import threading


class RequestRecord:
    """Observability record of the calling thread's current request."""

    __slots__ = (
        "session_id", "connection", "query", "statement", "analytics",
        "trace", "plan_cache_hit",
    )

    def __init__(self, session_id=None, connection=None):
        #: server-assigned session number (``None`` outside a server)
        self.session_id = session_id
        #: peer description, e.g. ``"127.0.0.1:52114"``
        self.connection = connection
        #: :class:`~repro.obs.stats.QueryStats` of the last Gremlin query
        self.query = None
        #: :class:`~repro.obs.stats.ExecutionStats` of the last
        #: instrumented (``EXPLAIN ANALYZE``) statement
        self.statement = None
        #: :class:`~repro.obs.stats.AnalyticsStats` of the last bulk run
        self.analytics = None
        #: :class:`~repro.obs.stats.TranslationTrace` of the last
        #: Gremlin→SQL translation
        self.trace = None
        #: did the last ``Database.execute`` reuse a prepared statement?
        self.plan_cache_hit = False

    def attributed(self, stats):
        """``stats.as_dict()`` plus this record's session attribution, or
        ``None`` when *stats* is ``None`` (wire payloads)."""
        if stats is None:
            return None
        return {
            **stats.as_dict(),
            "session_id": self.session_id,
            "connection": self.connection,
        }


class _ThreadRecord(threading.local):
    def __init__(self):
        self.record = RequestRecord()


_THREAD = _ThreadRecord()


def current():
    """The calling thread's :class:`RequestRecord`."""
    return _THREAD.record


class session_scope:
    """``with session_scope(sid, conn):`` — run the block on a fresh
    record attributed to the session; drop it on exit."""

    def __init__(self, session_id, connection=None):
        self.session_id = session_id
        self.connection = connection

    def __enter__(self):
        _THREAD.record = RequestRecord(self.session_id, self.connection)
        return self

    def __exit__(self, exc_type, exc, tb):
        _THREAD.record = RequestRecord()
        return False

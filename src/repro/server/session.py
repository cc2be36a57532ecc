"""Per-connection session state for the SQLGraph server.

A session is born at handshake, lives exactly as long as its TCP
connection, and is always served by a single worker thread — that pins
the engine's per-thread open transaction to the session.  Its
observability (last query, statement stats, translation trace) lives on
the request record a :class:`~repro.obs.context.session_scope` installs
fresh for the session and drops at its end.  Together these make one
shared :class:`~repro.core.store.SQLGraphStore` safe to serve to many
clients, one after another on the same pooled thread included.
"""

from __future__ import annotations

from time import monotonic


class Session:
    """State of one client connection.

    :param session_id: server-assigned number, carried by the session's
        request record (:mod:`repro.obs.context`) into ``stats`` payloads,
        ``:stats`` and ``EXPLAIN ANALYZE``.
    :param peer: ``"host:port"`` of the client.
    :param statement_timeout_s: default statement budget (``None`` = no
        limit); the client can override per session with the ``set`` op.
    """

    __slots__ = (
        "session_id", "peer", "created_at", "last_activity",
        "statement_timeout_s", "requests", "errors", "transaction",
        "client_name", "closing_reason",
    )

    def __init__(self, session_id, peer, statement_timeout_s=None):
        self.session_id = session_id
        self.peer = peer
        self.created_at = monotonic()
        self.last_activity = self.created_at
        self.statement_timeout_s = statement_timeout_s
        self.requests = 0
        self.errors = 0
        #: the session's open explicit transaction (None outside BEGIN)
        self.transaction = None
        self.client_name = None
        #: why the server is closing this session (wire error code), if any
        self.closing_reason = None

    @property
    def in_transaction(self):
        return self.transaction is not None and self.transaction.active

    def touch(self):
        self.last_activity = monotonic()

    def idle_for(self):
        return monotonic() - self.last_activity

    def describe(self):
        """JSON-able summary for the ``stats`` op and ``:stats``."""
        return {
            "id": self.session_id,
            "peer": self.peer,
            "client": self.client_name,
            "requests": self.requests,
            "errors": self.errors,
            "in_transaction": self.in_transaction,
            "idle_s": round(self.idle_for(), 3),
            "statement_timeout_s": self.statement_timeout_s,
        }

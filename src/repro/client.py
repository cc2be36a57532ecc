"""Blocking client for the SQLGraph server.

:class:`SQLGraphClient` speaks the framed-JSON protocol of
:mod:`repro.server.protocol`: one request frame out, one response frame
in, matched by request id.  Mirrors the embedded store's query surface::

    from repro.client import SQLGraphClient

    with SQLGraphClient("127.0.0.1", 7687) as client:
        names = client.run("g.V.has('age', T.gt, 28).name")
        result = client.sql("SELECT COUNT(*) FROM va WHERE vid >= 0")
        with client.transaction():
            client.sql("INSERT INTO kv VALUES (?, ?)", [1, "one"])

Failure handling
----------------

Server-side failures surface as :class:`~repro.server.protocol.WireError`
with a typed ``code`` and a ``retryable`` flag.  The client additionally
*retries transparently* when it is provably safe:

* **idempotent reads** (``gremlin``/``run``/``sql`` SELECTs, ``ping``,
  ``stats``) are re-sent after a reconnect when the connection drops, and
  re-sent after a backoff on retryable rejections (``SERVER_BUSY``);
* **everything else** (writes, transaction control) is never auto-retried
  — a dropped connection mid-write means the commit state is unknown, so
  the error propagates to the caller;
* retries never happen inside an open transaction: the session (and its
  transaction) died with the old connection.
"""

from __future__ import annotations

import itertools
import socket
import time

from repro.server.protocol import (
    ConnectionClosedError,
    FrameAssembler,
    FrameError,
    PROTOCOL_VERSION,
    WireError,
    recv_message,
    send_message,
)

CLIENT_NAME = "repro-client/1.0"

#: ops safe to re-send regardless of session state (no data access, or
#: access to server metadata only)
ALWAYS_IDEMPOTENT_OPS = frozenset({"ping", "stats"})

#: read-only ops: safe to re-send unless the session had an open
#: transaction (the transaction died with the old connection, so a
#: retried read would silently run outside it).  ``analytics`` belongs
#: here — a run reads a frozen copy of the graph and writes nothing to
#: the store, so a reconnect-and-retry returns the same answer.
READ_ONLY_OPS = frozenset({"gremlin", "run", "analytics", "hop", "fetch"})

#: ``crud`` sub-actions that only read (everything else mutates and must
#: never be auto-retried: a dropped connection mid-write leaves the
#: commit state unknown)
CRUD_READ_ACTIONS = frozenset({"get_vertex", "get_edge"})

#: ``sql`` statements retryable by leading keyword
SQL_READ_PREFIXES = ("select", "explain")


def classify_idempotent(op, payload=None, in_transaction=False):
    """Is one request provably safe to re-send after a failure?

    The single source of truth for the client's retry loop: pure reads
    outside a transaction are idempotent, every mutation and all
    transaction control is not.
    """
    if op in ALWAYS_IDEMPOTENT_OPS:
        return True
    if in_transaction:
        return False
    if op in READ_ONLY_OPS:
        return True
    payload = payload or {}
    if op == "sql":
        query = payload.get("query", "")
        return query.lstrip().lower().startswith(SQL_READ_PREFIXES)
    if op == "crud":
        return payload.get("action") in CRUD_READ_ACTIONS
    return False


class ClientError(Exception):
    """Client-side failure (connect, handshake, response mismatch)."""


class ResultSet:
    """Client-side mirror of the engine ResultSet (columns + rows)."""

    __slots__ = ("columns", "rows", "rowcount", "stats")

    def __init__(self, columns=(), rows=(), rowcount=0, stats=None):
        self.columns = list(columns)
        self.rows = [tuple(row) for row in rows]
        self.rowcount = rowcount
        self.stats = stats

    def scalar(self):
        if not self.rows:
            return None
        return self.rows[0][0]

    def __iter__(self):
        return iter(self.rows)

    def __len__(self):
        return len(self.rows)


class SQLGraphClient:
    """A blocking connection to a SQLGraph server.

    :param host/port: server address.
    :param connect_timeout_s: TCP connect + handshake budget.
    :param request_timeout_s: per-response wait budget.
    :param retries: extra attempts for idempotent reads (see module doc).
    :param retry_backoff_s: base sleep between retry attempts (doubles
        per attempt).
    """

    def __init__(self, host="127.0.0.1", port=7687, connect_timeout_s=5.0,
                 request_timeout_s=30.0, retries=2, retry_backoff_s=0.05,
                 client_name=CLIENT_NAME):
        self.host = host
        self.port = port
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.retries = retries
        self.retry_backoff_s = retry_backoff_s
        self.client_name = client_name
        self.session_id = None
        self.reconnects = 0
        #: stats dict of the most recent :meth:`analytics` run
        self.last_analytics_stats = None
        self._sock = None
        self._assembler = None
        self._ids = itertools.count(1)
        self._in_transaction = False

    # ------------------------------------------------------------------
    # connection management
    # ------------------------------------------------------------------
    def connect(self):
        """Open the socket and run the protocol handshake.  Idempotent."""
        if self._sock is not None:
            return self
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        # one ownership boundary: until the handshake fully succeeds,
        # *any* failure — transport, timeout, a bad reply — closes the
        # socket before the exception escapes
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            assembler = FrameAssembler()
            try:
                send_message(sock, {
                    "op": "hello",
                    "protocol": PROTOCOL_VERSION,
                    "client": self.client_name,
                })
                reply = recv_message(sock, assembler)
            except (OSError, ConnectionClosedError, FrameError) as exc:
                raise ClientError(f"handshake failed: {exc}") from None
            if reply is None:
                raise ClientError("handshake timed out")
            if reply.get("ok") is False:
                raise WireError.from_payload(reply.get("error", {}))
            if reply.get("op") != "hello" or reply.get("protocol") != \
                    PROTOCOL_VERSION:
                raise ClientError(f"unexpected handshake reply: {reply!r}")
            sock.settimeout(self.request_timeout_s)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._assembler = assembler
        self.session_id = reply.get("session")
        self._in_transaction = False
        return self

    def close(self):
        """Close the connection.  Idempotent."""
        if self._sock is not None:
            try:
                self._sock.close()
            finally:
                self._sock = None
                self._assembler = None
                self.session_id = None
                self._in_transaction = False

    def _drop_connection(self):
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = None
        self._assembler = None
        self.session_id = None
        self._in_transaction = False

    @property
    def connected(self):
        return self._sock is not None

    @property
    def in_transaction(self):
        return self._in_transaction

    def __enter__(self):
        return self.connect()

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    # ------------------------------------------------------------------
    # request plumbing
    # ------------------------------------------------------------------
    def _request(self, op, payload=None, idempotent=None):
        """Send one request, wait for its response, unwrap the result.

        *idempotent* requests are retried across reconnects and
        retryable rejections; everything else fails fast.  When left as
        ``None`` the flag comes from :func:`classify_idempotent` — the
        declarative retryable-op table at the top of this module.
        """
        if idempotent is None:
            idempotent = classify_idempotent(
                op, payload, in_transaction=self._in_transaction
            )
        attempts = 1 + (self.retries if idempotent else 0)
        last_error = None
        for attempt in range(attempts):
            if attempt:
                time.sleep(self.retry_backoff_s * (2 ** (attempt - 1)))
            try:
                return self._request_once(op, payload)
            except (ConnectionClosedError, OSError) as exc:
                self._drop_connection()
                last_error = ClientError(f"connection lost: {exc}")
                if not idempotent:
                    raise last_error from None
                self.reconnects += 1
            except WireError as exc:
                if not (idempotent and exc.retryable):
                    raise
                last_error = exc
                self._drop_connection()
        raise last_error

    def _request_once(self, op, payload):
        if self._sock is None:
            self.connect()
        request_id = next(self._ids)
        message = {"id": request_id, "op": op}
        if payload:
            message.update(payload)
        send_message(self._sock, message)
        while True:
            reply = recv_message(self._sock, self._assembler)
            if reply is None:
                self._drop_connection()
                raise ConnectionClosedError(
                    f"no response within {self.request_timeout_s}s"
                )
            if reply.get("id") is None and reply.get("ok") is False:
                # unsolicited close notification (idle reap, drain)
                self._drop_connection()
                raise WireError.from_payload(reply.get("error", {}))
            if reply.get("id") != request_id:
                self._drop_connection()
                raise ClientError(
                    f"response id {reply.get('id')!r} does not match "
                    f"request id {request_id}"
                )
            if reply.get("ok"):
                return reply.get("result")
            raise WireError.from_payload(reply.get("error", {}))

    # ------------------------------------------------------------------
    # query surface (mirrors SQLGraphStore)
    # ------------------------------------------------------------------
    def ping(self):
        return self._request("ping")

    def query(self, gremlin_text):
        """Run a Gremlin query; returns a :class:`ResultSet`."""
        result = self._request("gremlin", {"query": gremlin_text})
        return ResultSet(
            result["columns"], result["rows"], stats=result.get("stats")
        )

    def run(self, gremlin_text):
        """Run a Gremlin query; returns the list of result values."""
        result = self._request("run", {"query": gremlin_text})
        return result["values"]

    def sql(self, sql_text, params=None):
        """Raw SQL.  SELECTs outside a transaction are retried safely."""
        payload = {"query": sql_text}
        if params is not None:
            payload["params"] = list(params)
        result = self._request("sql", payload)
        return ResultSet(
            result["columns"], result["rows"], result.get("rowcount", 0)
        )

    def shell(self, line):
        """One REPL line, executed server-side; returns the output text."""
        result = self._request("shell", {"line": line})
        return result["output"]

    # ------------------------------------------------------------------
    # bulk analytics (one request per full run; see docs/ANALYTICS.md)
    # ------------------------------------------------------------------
    def analytics(self, algorithm, **options):
        """One full analytics run server-side; returns ``{vid: value}``.

        Analytics read a frozen copy of the live graph and write nothing
        to the store, so a dropped connection mid-run is safe to retry; the
        per-run :class:`~repro.obs.stats.AnalyticsStats` dict lands on
        :attr:`last_analytics_stats`.
        """
        result = self._request(
            "analytics", {"algorithm": algorithm, "options": options}
        )
        self.last_analytics_stats = result.get("stats")
        return {vid: value for vid, value in result["rows"]}

    def pagerank(self, **options):
        return self.analytics("pagerank", **options)

    def connected_components(self, **options):
        return self.analytics("components", **options)

    def label_propagation(self, **options):
        return self.analytics("labelprop", **options)

    def shortest_paths(self, source, **options):
        return self.analytics("sssp", source=source, **options)

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def begin(self):
        result = self._request("begin")
        self._in_transaction = True
        return result["txid"]

    def commit(self):
        try:
            return self._request("commit")
        finally:
            self._in_transaction = False

    def rollback(self):
        try:
            return self._request("rollback")
        finally:
            self._in_transaction = False

    def transaction(self):
        """``with client.transaction():`` — commit on success, roll back
        on exception (same contract as ``Database.transaction()``)."""
        client = self

        class _RemoteTransaction:
            def __enter__(self):
                client.begin()
                return client

            def __exit__(self, exc_type, exc, tb):
                if exc_type is None:
                    client.commit()
                elif client.connected and client.in_transaction:
                    try:
                        client.rollback()
                    except (ClientError, WireError):
                        pass
                return False

        return _RemoteTransaction()

    # ------------------------------------------------------------------
    # session settings / introspection
    # ------------------------------------------------------------------
    def set_statement_timeout(self, milliseconds):
        """Bound this session's statement lock waits (None clears)."""
        return self._request(
            "set", {"settings": {"statement_timeout_ms": milliseconds}}
        )

    def stats(self):
        """Server + session + last-query statistics."""
        return self._request("stats")

    # ------------------------------------------------------------------
    # sharding transport (batched primitives; see repro.sharding.router)
    # ------------------------------------------------------------------
    def hop(self, direction, vids, labels=()):
        """Live EA rows reachable from *vids* in *direction* (read-only)."""
        result = self._request("hop", {
            "direction": direction,
            "vids": list(vids),
            "labels": list(labels),
        })
        return result["rows"]

    def fetch(self, vids=None, eids=None, all=None):
        """Batched VA/EA row fetch (see the server ``fetch`` op)."""
        payload = {}
        if vids is not None:
            payload["vids"] = list(vids)
        if eids is not None:
            payload["eids"] = list(eids)
        if all is not None:
            payload["all"] = all
        return self._request("fetch", payload)

    def crud(self, action, **args):
        """One Blueprints mutation on the remote store.

        Write actions are never auto-retried (the commit state of a
        dropped connection is unknown); the classification lives in
        :func:`classify_idempotent`.
        """
        payload = {"action": action}
        payload.update(args)
        return self._request("crud", payload)["value"]

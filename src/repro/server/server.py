"""A threaded socket server exposing one shared SQLGraphStore.

Architecture (see ``docs/SERVER.md``)::

    accept thread ──> bounded accept queue ──> worker pool (N threads)
                         │ full?                    │
                         └─ SERVER_BUSY + close     └─ one connection ==
                            (fast-fail backpressure)   one session ==
                                                       one worker thread

*Admission control* is the queue + pool pair: at most ``max_workers``
sessions run concurrently, at most ``max_queue`` connections wait, and
everything beyond that is rejected immediately with a retryable
``SERVER_BUSY`` error instead of being allowed to pile up.

A worker serves its connection until the client disconnects, the session
idles out, or the server drains.  Pinning a session to one thread is
load-bearing: the engine binds the open transaction to the thread.  The
session's observability — its last query, statement stats, analytics run
and translation trace — lives on the thread's request record
(:mod:`repro.obs.context`), which :class:`~repro.obs.context.session_scope`
installs fresh for each session and drops when it ends, so a pooled
worker never shows one client what the previous one ran.

*Graceful shutdown* (:meth:`SQLGraphServer.shutdown`): stop accepting,
reject queued/new work with ``SHUTTING_DOWN``, let in-flight requests and
open transactions finish within the drain window (stragglers are rolled
back), then checkpoint the store and close the WAL.
"""

from __future__ import annotations

import queue
import socket
import threading
from time import monotonic, perf_counter

from repro.graph.analytics import AnalyticsTimeoutError
from repro.obs import context as obs_context
from repro.obs.stats import TimingHistogram
from repro.relational.errors import LockTimeoutError, TransactionError
from repro.server import protocol
from repro.server.protocol import (
    BAD_REQUEST,
    FrameAssembler,
    FrameError,
    ConnectionClosedError,
    PROTOCOL_ERROR,
    PROTOCOL_VERSION,
    SERVER_BUSY,
    SESSION_IDLE,
    SHUTTING_DOWN,
    STATEMENT_TIMEOUT,
    UNSUPPORTED_PROTOCOL,
    code_for_exception,
    error_payload,
    jsonable_rows,
    recv_message,
    send_message,
)
from repro.server.session import Session

SERVER_NAME = "sqlgraph-server/1.0"


class SQLGraphServer:
    """Serve Gremlin/SQL requests against one shared store.

    :param store: a loaded :class:`~repro.core.store.SQLGraphStore`.
    :param host/port: bind address; port 0 picks an ephemeral port
        (read :attr:`port` after :meth:`start`).
    :param max_workers: concurrent session cap (worker pool size).
    :param max_queue: accepted-but-unserved connection cap; beyond it new
        connections are fast-failed with ``SERVER_BUSY``.
    :param idle_timeout_s: reap sessions silent for this long (``None``
        disables).  Covers half-open TCP peers: the reaper closes the
        socket and rolls back any open transaction.
    :param statement_timeout_s: default per-statement budget; bounds lock
        waits (cooperative — running operators are not interrupted) and
        maps to the retryable ``STATEMENT_TIMEOUT`` wire error.
    :param drain_timeout_s: grace window for open transactions at
        shutdown before they are rolled back.
    """

    POLL_INTERVAL_S = 0.1

    def __init__(self, store, host="127.0.0.1", port=0, max_workers=8,
                 max_queue=16, idle_timeout_s=None, statement_timeout_s=None,
                 drain_timeout_s=5.0):
        self.store = store
        self.host = host
        self._requested_port = port
        self.port = None
        self.max_workers = max_workers
        self.max_queue = max_queue
        self.idle_timeout_s = idle_timeout_s
        self.statement_timeout_s = statement_timeout_s
        self.drain_timeout_s = drain_timeout_s

        self._listener = None
        self._accept_thread = None
        self._workers = []
        self._pending = queue.Queue(maxsize=max(1, max_queue))
        self._sessions_guard = threading.Lock()
        self._sessions = {}  # guarded-by: _sessions_guard
        self._next_session_id = 1  # guarded-by: _sessions_guard
        self._started = threading.Event()
        self._draining = threading.Event()
        self._stopped = threading.Event()
        self._drain_deadline = None

        # serving counters (the ``stats`` op reads them).  _count() bumps
        # them via getattr/setattr under the guard, which the guarded-by
        # checker cannot see through — direct accesses are what the
        # annotations police.
        self._counters_guard = threading.Lock()
        self.requests_served = 0  # guarded-by: _counters_guard
        self.errors_returned = 0  # guarded-by: _counters_guard
        self.rejected_busy = 0  # guarded-by: _counters_guard
        self.rejected_shutdown = 0  # guarded-by: _counters_guard
        self.idle_reaped = 0  # guarded-by: _counters_guard
        self.statement_timeouts = 0  # guarded-by: _counters_guard
        self.sessions_opened = 0  # guarded-by: _counters_guard
        self.protocol_errors = 0  # guarded-by: _counters_guard
        # guarded-by: _counters_guard
        self.request_latency = TimingHistogram("server.request_seconds")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self):
        """Bind, listen, and spin up the accept loop + worker pool."""
        if self._started.is_set():
            raise RuntimeError("server already started")
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((self.host, self._requested_port))
        self._listener.listen(self.max_queue + self.max_workers)
        self._listener.settimeout(self.POLL_INTERVAL_S)
        self.port = self._listener.getsockname()[1]
        self._started.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="sqlgraph-accept", daemon=True
        )
        self._accept_thread.start()
        for i in range(self.max_workers):
            worker = threading.Thread(
                target=self._worker_loop, name=f"sqlgraph-worker-{i}",
                daemon=True,
            )
            worker.start()
            self._workers.append(worker)
        return self

    def shutdown(self, drain_timeout_s=None):
        """Graceful stop: drain, reject new work, checkpoint, close WAL."""
        if not self._started.is_set() or self._stopped.is_set():
            return
        if drain_timeout_s is None:
            drain_timeout_s = self.drain_timeout_s
        self._drain_deadline = monotonic() + drain_timeout_s
        self._draining.set()
        try:
            self._listener.close()
        except OSError:
            pass
        # fast-fail everything still waiting for a worker
        while True:
            try:
                conn, __addr = self._pending.get_nowait()
            except queue.Empty:
                break
            self._reject(conn, SHUTTING_DOWN, "server is shutting down")
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=drain_timeout_s + 1.0)
        for worker in self._workers:
            worker.join(timeout=drain_timeout_s + 1.0)
        # stragglers past the drain window: force the sockets closed (the
        # worker's next recv fails and its cleanup rolls the session back)
        with self._sessions_guard:
            leftover = list(self._sessions.values())
        for __session, sock in leftover:
            try:
                sock.close()
            except OSError:
                pass
        for worker in self._workers:
            worker.join(timeout=1.0)
        self.store.close()  # checkpoint + close the WAL (idempotent)
        self._stopped.set()

    def wait_stopped(self, timeout=None):
        return self._stopped.wait(timeout)

    @property
    def draining(self):
        return self._draining.is_set()

    # ------------------------------------------------------------------
    # accept loop + admission control
    # ------------------------------------------------------------------
    def _accept_loop(self):
        while not self._draining.is_set():
            try:
                conn, addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                break  # listener closed by shutdown()
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            if self._draining.is_set():
                self._reject(conn, SHUTTING_DOWN, "server is shutting down")
                continue
            try:
                self._pending.put_nowait((conn, addr))
            except queue.Full:
                self._reject(
                    conn, SERVER_BUSY,
                    f"all {self.max_workers} workers busy and the accept "
                    f"queue of {self.max_queue} is full; retry later",
                )

    def _reject(self, conn, code, message):
        """Best-effort typed error + close for a connection we won't serve."""
        if code == SERVER_BUSY:
            self._count("rejected_busy")
        elif code == SHUTTING_DOWN:
            self._count("rejected_shutdown")
        try:
            conn.settimeout(1.0)
            send_message(conn, {
                "id": None, "ok": False,
                "error": error_payload(code, message),
            })
        except OSError:
            pass
        finally:
            try:
                conn.close()
            except OSError:
                pass

    # ------------------------------------------------------------------
    # worker pool
    # ------------------------------------------------------------------
    def _worker_loop(self):
        while True:
            try:
                conn, addr = self._pending.get(timeout=self.POLL_INTERVAL_S)
            except queue.Empty:
                if self._draining.is_set():
                    return
                continue
            if self._draining.is_set():
                self._reject(conn, SHUTTING_DOWN, "server is shutting down")
                continue
            try:
                self._serve_connection(conn, addr)
            finally:
                try:
                    conn.close()
                except OSError:
                    pass

    # ------------------------------------------------------------------
    # one session
    # ------------------------------------------------------------------
    def _serve_connection(self, conn, addr):
        peer = f"{addr[0]}:{addr[1]}"
        conn.settimeout(self.POLL_INTERVAL_S)
        assembler = FrameAssembler()
        session = None
        try:
            session = self._handshake(conn, assembler, peer)
            if session is None:
                return
            with obs_context.session_scope(session.session_id, peer):
                self._session_loop(conn, assembler, session)
        except (ConnectionClosedError, OSError):
            pass  # client went away; cleanup below
        except FrameError as exc:
            self._count("protocol_errors")
            self._reject_frame_error(conn, exc)
        finally:
            if session is not None:
                self._close_session(session)

    def _handshake(self, conn, assembler, peer):
        """Run the hello exchange; returns a Session or None (rejected)."""
        deadline = monotonic() + 5.0
        while True:
            message = recv_message(conn, assembler)
            if message is not None:
                break
            if monotonic() > deadline:
                self._reject(conn, PROTOCOL_ERROR, "handshake timeout")
                return None
        if message.get("op") != "hello":
            self._reject(
                conn, PROTOCOL_ERROR,
                "first frame must be a hello, got "
                f"{message.get('op')!r}",
            )
            return None
        version = message.get("protocol")
        if version != PROTOCOL_VERSION:
            self._count("protocol_errors")
            self._reject(
                conn, UNSUPPORTED_PROTOCOL,
                f"server speaks protocol {PROTOCOL_VERSION}, "
                f"client asked for {version!r}",
            )
            return None
        with self._sessions_guard:
            session_id = self._next_session_id
            self._next_session_id += 1
        session = Session(
            session_id, peer, statement_timeout_s=self.statement_timeout_s
        )
        session.client_name = message.get("client")
        with self._sessions_guard:
            self._sessions[session_id] = (session, conn)
        self._count("sessions_opened")
        self._send(conn, {
            "op": "hello",
            "protocol": PROTOCOL_VERSION,
            "server": SERVER_NAME,
            "session": session_id,
        })
        return session

    def _session_loop(self, conn, assembler, session):
        while True:
            message = recv_message(conn, assembler)
            if message is None:
                # poll tick: idle reaping + drain handling
                if self._draining.is_set() and not session.in_transaction:
                    session.closing_reason = SHUTTING_DOWN
                    self._notify_close(
                        conn, SHUTTING_DOWN, "server is shutting down"
                    )
                    return
                if (
                    self._draining.is_set()
                    and self._drain_deadline is not None
                    and monotonic() > self._drain_deadline
                ):
                    session.closing_reason = SHUTTING_DOWN
                    self._notify_close(
                        conn, SHUTTING_DOWN,
                        "drain window elapsed; open transaction rolled back",
                    )
                    return
                if (
                    self.idle_timeout_s is not None
                    and session.idle_for() >= self.idle_timeout_s
                ):
                    self._count("idle_reaped")
                    session.closing_reason = SESSION_IDLE
                    self._notify_close(
                        conn, SESSION_IDLE,
                        f"session idle for more than {self.idle_timeout_s}s",
                    )
                    return
                continue
            session.touch()
            if self._draining.is_set() and not session.in_transaction:
                # in-flight requests finished; everything new is rejected
                self._send(conn, self._error_response(
                    session, message.get("id"),
                    SHUTTING_DOWN, "server is shutting down",
                ))
                session.closing_reason = SHUTTING_DOWN
                return
            response = self._handle_request(session, message)
            self._send(conn, response)
            session.touch()

    def _send(self, conn, message):
        """Send a response with a real (non-poll) timeout, then restore."""
        conn.settimeout(5.0)
        try:
            send_message(conn, message)
        finally:
            conn.settimeout(self.POLL_INTERVAL_S)

    def _notify_close(self, conn, code, message):
        try:
            self._send(conn, {
                "id": None, "ok": False,
                "error": error_payload(code, message),
            })
        except OSError:
            pass

    def _reject_frame_error(self, conn, exc):
        try:
            conn.settimeout(1.0)
            send_message(conn, {
                "id": None, "ok": False,
                "error": error_payload(PROTOCOL_ERROR, str(exc)),
            })
        except OSError:
            pass

    def _close_session(self, session):
        """Roll back any open transaction and drop the session entry."""
        transaction = session.transaction
        if transaction is not None and transaction.active:
            try:
                transaction.rollback()
            except Exception:  # best-effort rollback while tearing down a dead session; nothing to report to
                pass
        session.transaction = None
        with self._sessions_guard:
            self._sessions.pop(session.session_id, None)

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    def _handle_request(self, session, message):
        request_id = message.get("id")
        op = message.get("op")
        session.requests += 1
        started = perf_counter()
        try:
            handler = self._HANDLERS.get(op)
            if handler is None:
                raise _BadRequest(f"unknown op {op!r}")
            result = handler(self, session, message)
            response = {"id": request_id, "ok": True, "result": result}
        except _BadRequest as exc:
            response = self._error_response(session, request_id,
                                            BAD_REQUEST, str(exc))
        except LockTimeoutError as exc:
            code = protocol.LOCK_TIMEOUT
            budget = session.statement_timeout_s
            if budget is not None and perf_counter() - started >= budget:
                code = STATEMENT_TIMEOUT
                self._count("statement_timeouts")
            response = self._error_response(session, request_id, code,
                                            str(exc))
        except AnalyticsTimeoutError as exc:
            # an analytics driver hit the session's statement budget
            # between iterations (cooperative, not a lock wait)
            self._count("statement_timeouts")
            response = self._error_response(session, request_id,
                                            STATEMENT_TIMEOUT, str(exc))
        except Exception as exc:  # wire boundary: every failure maps to a typed error frame, never a dropped connection
            # a relayed WireError (e.g. a coordinator's per-request
            # SHARD_UNAVAILABLE) carries its own retryability verdict;
            # recomputing from the static table would flatten it
            retryable = (
                exc.retryable if isinstance(exc, protocol.WireError) else None
            )
            response = self._error_response(
                session, request_id, code_for_exception(exc),
                f"{type(exc).__name__}: {exc}", retryable=retryable,
            )
        elapsed = perf_counter() - started
        with self._counters_guard:
            self.requests_served += 1
            self.request_latency.observe(elapsed)
        return response

    def _error_response(self, session, request_id, code, message,
                        retryable=None):
        session.errors += 1
        self._count("errors_returned")
        return {
            "id": request_id, "ok": False,
            "error": error_payload(code, message, retryable=retryable),
        }

    # -- ops ------------------------------------------------------------
    def _op_ping(self, session, message):
        return {"pong": True, "session": session.session_id}

    def _op_gremlin(self, session, message):
        query = _required(message, "query")
        with self._statement_budget(session):
            result = self.store.query(query)
        stats = obs_context.current().query
        return {
            "columns": result.columns,
            "rows": jsonable_rows(result.rows),
            "stats": {
                "elapsed_s": stats.elapsed_s,
                "translate_s": stats.translate_s,
                "translation_cache_hit": stats.translation_cache_hit,
                "plan_cache_hit": stats.plan_cache_hit,
                # routing info when the store is a sharded cluster facade
                "sharding": stats.sharding,
            },
        }

    def _op_run(self, session, message):
        query = _required(message, "query")
        with self._statement_budget(session):
            values = self.store.run(query)
        return {"values": list(values)}

    def _op_sql(self, session, message):
        query = _required(message, "query")
        params = message.get("params")
        with self._statement_budget(session):
            result = self.store.execute_sql(query, params)
        return {
            "columns": result.columns,
            "rows": jsonable_rows(result.rows),
            "rowcount": result.rowcount,
        }

    def _op_begin(self, session, message):
        transaction = self.store.database.begin()
        session.transaction = transaction
        return {"txid": transaction.txid}

    def _op_commit(self, session, message):
        transaction = self._open_transaction(session)
        session.transaction = None
        transaction.commit()
        return {"committed": True}

    def _op_rollback(self, session, message):
        transaction = self._open_transaction(session)
        session.transaction = None
        transaction.rollback()
        return {"rolled_back": True}

    def _open_transaction(self, session):
        transaction = session.transaction
        if transaction is None or not transaction.active:
            raise TransactionError("session has no open transaction")
        return transaction

    def _op_set(self, session, message):
        settings = message.get("settings")
        if not isinstance(settings, dict):
            raise _BadRequest("set requires a 'settings' object")
        for key, value in settings.items():
            if key == "statement_timeout_ms":
                if value is None:
                    session.statement_timeout_s = None
                else:
                    session.statement_timeout_s = max(0.0, float(value)) / 1e3
            else:
                raise _BadRequest(f"unknown session setting {key!r}")
        return {"settings": {
            "statement_timeout_ms":
                None if session.statement_timeout_s is None
                else session.statement_timeout_s * 1000.0,
        }}

    def _op_stats(self, session, message):
        record = obs_context.current()
        return {
            "server": self.stats(),
            "session": session.describe(),
            "last_query": record.attributed(record.query),
        }

    def _op_shell(self, session, message):
        """One REPL line, server-side — lets ``repro.cli --connect`` drive
        a remote store with the exact local shell semantics."""
        from repro.cli import execute_line

        line = _required(message, "line")
        try:
            output = execute_line(self.store, line)
        except SystemExit:
            raise _BadRequest(
                ":quit is client-side; just close the connection"
            )
        if line.strip() == ":stats":
            output = "\n".join([output] + self._stats_lines(session))
        return {"output": output}

    #: analytics algorithm -> (store method, accepted request options)
    _ANALYTICS = {
        "pagerank": ("pagerank", ("damping", "tolerance", "max_iterations")),
        "components": ("connected_components", ("max_iterations",)),
        "labelprop": ("label_propagation", ("max_iterations",)),
        "sssp": (
            "shortest_paths", ("source", "weight_key", "max_iterations")
        ),
    }

    def _op_analytics(self, session, message):
        """One full analytics run in one round trip.

        The session's statement timeout becomes the run's cooperative
        ``time_budget_s`` (checked between statements), and a draining
        server cancels the loop via the ``cancel`` callback — so a bulk
        run can never outlive the drain window or hold its budget
        hostage to a long iteration sequence.
        """
        algorithm = _required(message, "algorithm")
        if algorithm not in self._ANALYTICS:
            known = ", ".join(sorted(self._ANALYTICS))
            raise _BadRequest(
                f"unknown analytics algorithm {algorithm!r} "
                f"(known: {known})"
            )
        method, allowed = self._ANALYTICS[algorithm]
        options = message.get("options") or {}
        if not isinstance(options, dict):
            raise _BadRequest("analytics 'options' must be an object")
        unknown = sorted(set(options) - set(allowed))
        if unknown:
            raise _BadRequest(
                f"unknown {algorithm} options: {', '.join(unknown)} "
                f"(accepted: {', '.join(allowed)})"
            )
        if algorithm == "sssp":
            if not isinstance(options.get("source"), int):
                raise _BadRequest(
                    "sssp requires an integer options.source vertex id"
                )
        runner = getattr(self.store, method)
        with self._statement_budget(session):
            values = runner(
                time_budget_s=session.statement_timeout_s,
                cancel=self._draining.is_set,
                **options,
            )
        record = obs_context.current()
        return {
            "algorithm": algorithm,
            # wire rows, not a dict: JSON objects can't carry int keys
            "rows": [[vid, value] for vid, value in sorted(values.items())],
            "stats": record.attributed(record.analytics),
        }

    # ------------------------------------------------------------------
    # sharding transport ops (batched primitives the scatter-gather
    # router fans out; see src/repro/sharding/router.py)
    # ------------------------------------------------------------------
    def _op_hop(self, session, message):
        """Resolve one adjacency hop for a batch of frontier vids.

        Returns the live EA rows whose ``outv`` (direction ``out``) or
        ``inv`` (direction ``in``) is in *vids*, optionally restricted
        to *labels*.  One indexed, plan-cached probe per frontier vid.
        """
        direction = _required(message, "direction")
        if direction not in ("out", "in"):
            raise _BadRequest("hop direction must be 'out' or 'in'")
        vids = message.get("vids") or []
        labels = message.get("labels") or []
        if not isinstance(vids, list) or not isinstance(labels, list):
            raise _BadRequest("hop 'vids' and 'labels' must be arrays")
        names = self.store.schema.table_names
        column = "outv" if direction == "out" else "inv"
        sql = (
            f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
            f"WHERE eid >= 0 AND {column} = ?"
        )
        if labels:
            placeholders = ", ".join("?" for _ in labels)
            sql += f" AND lbl IN ({placeholders})"
        rows = []
        with self._statement_budget(session):
            for vid in vids:
                result = self.store.database.execute(sql, [vid, *labels])
                rows.extend(result.rows)
        return {"rows": jsonable_rows(rows)}

    def _op_fetch(self, session, message):
        """Batched element fetch: live VA/EA rows for explicit ids, full
        per-shard scans (``all``), or element counts."""
        names = self.store.schema.table_names
        result = {}
        with self._statement_budget(session):
            if "vids" in message:
                vids = message["vids"]
                if not isinstance(vids, list):
                    raise _BadRequest("fetch 'vids' must be an array")
                sql = f"SELECT vid, attr FROM {names['va']} WHERE vid = ?"
                rows = []
                for vid in vids:
                    if not isinstance(vid, int) or vid < 0:
                        continue  # tombstones are negative; never match
                    rows.extend(self.store.database.execute(sql, [vid]).rows)
                result["vertices"] = jsonable_rows(rows)
            if "eids" in message:
                eids = message["eids"]
                if not isinstance(eids, list):
                    raise _BadRequest("fetch 'eids' must be an array")
                sql = (
                    f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
                    "WHERE eid = ?"
                )
                rows = []
                for eid in eids:
                    if not isinstance(eid, int) or eid < 0:
                        continue
                    rows.extend(self.store.database.execute(sql, [eid]).rows)
                result["edges"] = jsonable_rows(rows)
            what = message.get("all")
            if what == "vertices":
                rows = self.store.database.execute(
                    f"SELECT vid, attr FROM {names['va']} WHERE vid >= 0"
                ).rows
                result["vertices"] = jsonable_rows(rows)
            elif what == "edges":
                rows = self.store.database.execute(
                    f"SELECT eid, outv, inv, lbl, attr FROM {names['ea']} "
                    "WHERE eid >= 0"
                ).rows
                result["edges"] = jsonable_rows(rows)
            elif what == "counts":
                result["counts"] = {
                    "vertices": self.store.vertex_count(),
                    "edges": self.store.edge_count(),
                }
            elif what == "max_ids":
                max_vid = self.store.database.execute(
                    f"SELECT MAX(vid) FROM {names['va']} WHERE vid >= 0"
                ).scalar()
                max_eid = self.store.database.execute(
                    f"SELECT MAX(eid) FROM {names['ea']} WHERE eid >= 0"
                ).scalar()
                result["max_ids"] = {
                    "vid": max_vid or 0, "eid": max_eid or 0,
                }
            elif what is not None:
                raise _BadRequest(
                    "fetch 'all' must be one of vertices/edges/counts/"
                    "max_ids"
                )
        if not result:
            raise _BadRequest("fetch requires 'vids', 'eids' or 'all'")
        return result

    #: crud action -> (store method, required args, optional args)
    _CRUD = {
        "get_vertex": ("get_vertex", ("vertex_id",), ()),
        "get_edge": ("get_edge", ("edge_id",), ()),
        "add_vertex": ("add_vertex", (), ("vertex_id", "properties")),
        "add_edge": (
            "add_edge",
            ("out_vertex_id", "in_vertex_id", "label"),
            ("edge_id", "properties"),
        ),
        "remove_vertex": ("remove_vertex", ("vertex_id",), ()),
        "remove_edge": ("remove_edge", ("edge_id",), ()),
        "set_vertex_property": (
            "set_vertex_property", ("vertex_id", "key", "value"), ()
        ),
        "set_edge_property": (
            "set_edge_property", ("edge_id", "key", "value"), ()
        ),
    }

    def _op_crud(self, session, message):
        """One Blueprints mutation, routed to the owning shard by the
        coordinator.  Autocommits exactly like the embedded store."""
        action = _required(message, "action")
        spec = self._CRUD.get(action)
        if spec is None:
            known = ", ".join(sorted(self._CRUD))
            raise _BadRequest(
                f"unknown crud action {action!r} (known: {known})"
            )
        method, required, optional = spec
        kwargs = {}
        for name in required:
            kwargs[name] = _required(message, name)
        for name in optional:
            if message.get(name) is not None:
                kwargs[name] = message[name]
        with self._statement_budget(session):
            value = getattr(self.store, method)(**kwargs)
        if value is not None and hasattr(value, "id") and \
                hasattr(value, "properties"):
            # a get_* result: flatten the element to a JSON-able dict
            element = {"id": value.id, "properties": dict(value.properties)}
            if hasattr(value, "outv"):
                element.update(outv=value.outv, inv=value.inv,
                               label=value.label)
            value = element
        return {"value": value}

    _HANDLERS = {
        "ping": _op_ping,
        "analytics": _op_analytics,
        "gremlin": _op_gremlin,
        "run": _op_run,
        "sql": _op_sql,
        "begin": _op_begin,
        "commit": _op_commit,
        "rollback": _op_rollback,
        "set": _op_set,
        "stats": _op_stats,
        "shell": _op_shell,
        "hop": _op_hop,
        "fetch": _op_fetch,
        "crud": _op_crud,
    }

    # ------------------------------------------------------------------
    # statement budget
    # ------------------------------------------------------------------
    def _statement_budget(self, session):
        """Bound the statement's lock waits by the session's timeout."""
        budget = session.statement_timeout_s
        return self.store.database.locks.cap(budget)

    # ------------------------------------------------------------------
    # metrics / introspection
    # ------------------------------------------------------------------
    def _count(self, name):
        with self._counters_guard:
            setattr(self, name, getattr(self, name) + 1)

    def active_sessions(self):
        with self._sessions_guard:
            return [session.describe() for session, __ in
                    self._sessions.values()]

    def stats(self):
        """JSON-able serving-layer counters (the ``stats`` op payload)."""
        with self._sessions_guard:
            active = len(self._sessions)
        with self._counters_guard:
            latency = self.request_latency
            counters = {
                "requests": self.requests_served,
                "errors": self.errors_returned,
                "rejected_busy": self.rejected_busy,
                "rejected_shutdown": self.rejected_shutdown,
                "idle_reaped": self.idle_reaped,
                "statement_timeouts": self.statement_timeouts,
                "sessions_opened": self.sessions_opened,
                "protocol_errors": self.protocol_errors,
                "latency": {
                    "count": latency.count,
                    "mean_ms": latency.mean() * 1000.0,
                    "p50_ms": latency.quantile(0.5) * 1000.0,
                    "p95_ms": latency.quantile(0.95) * 1000.0,
                    "max_ms": (latency.maximum or 0.0) * 1000.0,
                },
            }
        return {
            "host": self.host,
            "port": self.port,
            "max_workers": self.max_workers,
            "max_queue": self.max_queue,
            "active_sessions": active,
            "queue_depth": self._pending.qsize(),
            "draining": self._draining.is_set(),
            # ANALYZE statistics snapshot: which tables the shared store's
            # cost-based planner currently has estimates for
            "optimizer_statistics": self._store_statistics(),
            **counters,
        }

    def _store_statistics(self):
        """Optimizer-statistics snapshot; a sharded coordinator has no
        local relational engine to snapshot."""
        return self.store.database.statistics.snapshot()

    def _stats_lines(self, session):
        """Server section appended to a remote ``:stats``."""
        stats = self.stats()
        latency = stats["latency"]
        return [
            "",
            f"server: {stats['active_sessions']} active sessions, "
            f"queue depth {stats['queue_depth']}, "
            f"{stats['requests']} requests "
            f"({stats['errors']} errors, {stats['rejected_busy']} busy-"
            f"rejected, {stats['idle_reaped']} idle-reaped, "
            f"{stats['statement_timeouts']} statement timeouts)",
            f"  latency: mean {latency['mean_ms']:.3f}ms, "
            f"p95 {latency['p95_ms']:.3f}ms over {latency['count']} requests",
            f"  this session: #{session.session_id} "
            f"({session.requests} requests"
            f"{', in transaction' if session.in_transaction else ''})",
        ]


class _BadRequest(Exception):
    """Request is structurally invalid (missing field, unknown op)."""


def _required(message, field):
    value = message.get(field)
    if value is None:
        raise _BadRequest(f"request needs a {field!r} field")
    return value

"""Multi-client integration tests for the serving layer.

One in-process :class:`SQLGraphServer` over a shared store; real TCP
clients exercise session isolation, per-session observability
attribution, admission-control backpressure, graceful drain, and the
remote shell.
"""

import threading
import time

import pytest

from repro.cli import build_store
from repro.client import ClientError, SQLGraphClient
from repro.server import SQLGraphServer, WireError
from repro.server import protocol
from repro.relational.errors import TransactionError


@pytest.fixture
def server():
    store = build_store("tinker")
    server = SQLGraphServer(store, port=0, max_workers=4, max_queue=4).start()
    yield server
    server.shutdown(drain_timeout_s=1.0)


@pytest.fixture
def client(server):
    with SQLGraphClient("127.0.0.1", server.port) as client:
        yield client


class TestBasicServing:
    def test_gremlin_roundtrip(self, client):
        assert client.run("g.V.has('age', T.gt, 28).name") == \
            ["marko", "josh"]

    def test_query_returns_stats(self, client):
        result = client.query("g.V.name")
        assert len(result) == 4
        assert result.stats["elapsed_s"] > 0
        # second run hits both caches
        again = client.query("g.V.name")
        assert again.stats["translation_cache_hit"] is True
        assert again.stats["plan_cache_hit"] is True

    def test_sql_with_params(self, client):
        result = client.sql(
            "SELECT JSON_VAL(attr, 'name') FROM va "
            "WHERE JSON_VAL(attr, 'age') > ? "
            "ORDER BY JSON_VAL(attr, 'name')",
            [28],
        )
        assert [row[0] for row in result.rows] == ["josh", "marko"]

    def test_typed_error_for_bad_sql(self, client):
        with pytest.raises(WireError) as excinfo:
            client.sql("SELEKT broken")
        assert excinfo.value.code == protocol.SQL_SYNTAX
        assert excinfo.value.retryable is False

    def test_typed_error_for_bad_gremlin(self, client):
        with pytest.raises(WireError) as excinfo:
            client.run("g.V.out(")  # unterminated pipe: syntax error
        assert excinfo.value.code == protocol.GREMLIN_ERROR

    def test_unknown_op_is_bad_request(self, client):
        with pytest.raises(WireError) as excinfo:
            client._request("frobnicate")
        assert excinfo.value.code == protocol.BAD_REQUEST

    def test_session_survives_errors(self, client):
        for __ in range(3):
            with pytest.raises(WireError):
                client.sql("SELEKT nope")
        assert client.ping()["pong"] is True

    def test_stats_carry_no_planner_statistics(self, client):
        """The planner keeps no statistics, so the payload reports none."""
        server_stats = client.stats()["server"]
        assert "requests" in server_stats
        assert [key for key in server_stats if "statistic" in key] == []


class TestSessionIsolation:
    def test_transactions_do_not_leak_across_sessions(self, server):
        with SQLGraphClient("127.0.0.1", server.port) as a, \
                SQLGraphClient("127.0.0.1", server.port) as b:
            a.begin()
            # b has no transaction: commit must fail with a typed error
            with pytest.raises(WireError) as excinfo:
                b.commit()
            assert excinfo.value.code == protocol.TRANSACTION_ERROR
            a.rollback()

    def test_rollback_discards_only_this_sessions_writes(self, server):
        with SQLGraphClient("127.0.0.1", server.port) as a, \
                SQLGraphClient("127.0.0.1", server.port) as b:
            baseline = a.sql("SELECT COUNT(*) FROM va WHERE vid >= 0").scalar()
            b.begin()
            b.sql("INSERT INTO va VALUES (?, ?)", [8001, {"tmp": "x"}])
            b.rollback()
            assert a.sql(
                "SELECT COUNT(*) FROM va WHERE vid >= 0"
            ).scalar() == baseline

    def test_double_begin_rejected(self, client):
        client.begin()
        with pytest.raises(WireError) as excinfo:
            client._request("begin")
        assert excinfo.value.code == protocol.TRANSACTION_ERROR
        client.rollback()

    def test_disconnect_rolls_back_open_transaction(self, server):
        baseline = server.store.execute_sql(
            "SELECT COUNT(*) FROM va WHERE vid >= 0"
        ).rows[0][0]
        client = SQLGraphClient("127.0.0.1", server.port).connect()
        client.begin()
        client.sql("INSERT INTO va VALUES (?, ?)", [8002, {"tmp": "x"}])
        session_id = client.session_id
        client.close()  # no commit
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            if all(s["id"] != session_id for s in server.active_sessions()):
                break
            time.sleep(0.02)
        assert server.store.execute_sql(
            "SELECT COUNT(*) FROM va WHERE vid >= 0"
        ).rows[0][0] == baseline

    def test_last_query_stats_are_per_session(self, server):
        with SQLGraphClient("127.0.0.1", server.port) as a, \
                SQLGraphClient("127.0.0.1", server.port) as b:
            a.run("g.V.name")
            b.run("g.v(1).out.name")
            stats_a = a.stats()["last_query"]
            stats_b = b.stats()["last_query"]
            assert stats_a["gremlin"] == "g.V.name"
            assert stats_b["gremlin"] == "g.v(1).out.name"
            assert stats_a["session_id"] == a.session_id
            assert stats_b["session_id"] == b.session_id

    def test_explain_analyze_names_the_session(self, server):
        with SQLGraphClient("127.0.0.1", server.port) as client:
            result = client.sql(
                "EXPLAIN ANALYZE SELECT COUNT(*) FROM va WHERE vid >= 0"
            )
            text = "\n".join(row[0] for row in result.rows)
            assert f"Session: {client.session_id}" in text
            assert "127.0.0.1:" in text  # peer address rides along

    def test_new_session_does_not_inherit_last_query(self):
        # one worker thread serves both sessions, one after the other
        server = SQLGraphServer(build_store("tinker"), port=0,
                                max_workers=1).start()
        try:
            with SQLGraphClient("127.0.0.1", server.port) as first:
                first.run("g.v(1).out.name")
                assert first.stats()["last_query"]["gremlin"] == \
                    "g.v(1).out.name"
            with SQLGraphClient("127.0.0.1", server.port) as second:
                assert second.stats()["last_query"] is None
                assert "last query:" not in second.shell(":stats")
        finally:
            server.shutdown(drain_timeout_s=1.0)


class TestConcurrency:
    def test_parallel_clients_agree(self, server):
        errors = []
        results = []

        def worker():
            try:
                with SQLGraphClient("127.0.0.1", server.port) as client:
                    for __ in range(10):
                        results.append(tuple(client.run("g.V.name")))
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
        assert not errors
        assert len(results) == 40
        assert len(set(results)) == 1  # every read saw the same graph

    def test_concurrent_committed_writes_all_land(self, server):
        clients = 4
        per_client = 5
        errors = []

        def writer(base):
            try:
                with SQLGraphClient("127.0.0.1", server.port) as client:
                    for i in range(per_client):
                        with client.transaction():
                            client.sql(
                                "INSERT INTO va VALUES (?, ?)",
                                [9100 + base * per_client + i,
                                 {"batch": str(base)}],
                            )
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=writer, args=(n,))
                   for n in range(clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        count = server.store.execute_sql(
            "SELECT COUNT(*) FROM va WHERE vid >= 9100 AND vid < 9200"
        ).rows[0][0]
        assert count == clients * per_client


class TestAdmissionControl:
    def test_overflow_connections_fast_fail_with_server_busy(self):
        store = build_store("tinker")
        server = SQLGraphServer(
            store, port=0, max_workers=1, max_queue=1
        ).start()
        try:
            # stall the single worker inside a transaction-held session
            blocker = SQLGraphClient("127.0.0.1", server.port).connect()
            event = threading.Event()

            def hold():
                blocker.begin()
                event.set()
                time.sleep(1.0)
                blocker.rollback()

            holder = threading.Thread(target=hold)
            holder.start()
            event.wait(timeout=5)
            # fill the accept queue with raw connections, then overflow it;
            # queued connections hear nothing (no worker yet) while the
            # overflow one gets an immediate SERVER_BUSY frame
            import socket as socket_module

            from repro.server.protocol import FrameAssembler as Assembler

            saw_busy = False
            extras = []
            try:
                for __ in range(8):
                    sock = socket_module.create_connection(
                        ("127.0.0.1", server.port), timeout=2.0
                    )
                    extras.append(sock)
                    sock.settimeout(1.0)
                    assembler = Assembler()
                    try:
                        while True:
                            chunk = sock.recv(65536)
                            if not chunk:
                                break
                            assembler.feed(chunk)
                            reply = assembler.next_message()
                            if reply is not None:
                                assert reply["error"]["code"] == \
                                    protocol.SERVER_BUSY
                                assert reply["error"]["retryable"] is True
                                saw_busy = True
                                break
                    except socket_module.timeout:
                        continue  # queued, not rejected — keep piling on
                    if saw_busy:
                        break
            finally:
                holder.join()
                for sock in extras:
                    sock.close()
                blocker.close()
            assert saw_busy, "no connection was fast-failed"
            assert server.rejected_busy >= 1
        finally:
            server.shutdown(drain_timeout_s=1.0)


class TestGracefulDrain:
    def test_drain_finishes_open_transaction(self):
        store = build_store("tinker")
        server = SQLGraphServer(
            store, port=0, max_workers=2, max_queue=2, drain_timeout_s=5.0
        ).start()
        client = SQLGraphClient("127.0.0.1", server.port).connect()
        client.begin()
        client.sql("INSERT INTO va VALUES (?, ?)", [9200, {"drain": "yes"}])

        shutdown_thread = threading.Thread(target=server.shutdown)
        shutdown_thread.start()
        time.sleep(0.3)  # server is now draining
        # the in-flight transaction may still finish...
        client.commit()
        # ...but new work after it is rejected with a typed error
        with pytest.raises((WireError, ClientError)) as excinfo:
            client.ping()
        if isinstance(excinfo.value, WireError):
            assert excinfo.value.code == protocol.SHUTTING_DOWN
        client.close()
        shutdown_thread.join(timeout=15)
        assert server.wait_stopped(timeout=1)
        # the commit that beat the drain window is durable in the store
        # (store is closed; check the session-visible acknowledgement)
        assert not shutdown_thread.is_alive()

    def test_new_connections_rejected_while_draining(self):
        store = build_store("tinker")
        server = SQLGraphServer(
            store, port=0, max_workers=2, max_queue=2, drain_timeout_s=2.0
        ).start()
        holder = SQLGraphClient("127.0.0.1", server.port).connect()
        holder.begin()
        shutdown_thread = threading.Thread(target=server.shutdown)
        shutdown_thread.start()
        time.sleep(0.3)
        try:
            with pytest.raises((WireError, ClientError, OSError)) as excinfo:
                SQLGraphClient(
                    "127.0.0.1", server.port,
                    connect_timeout_s=2.0, retries=0,
                ).connect()
            if isinstance(excinfo.value, WireError):
                assert excinfo.value.code == protocol.SHUTTING_DOWN
        finally:
            holder.close()
            shutdown_thread.join(timeout=15)
        assert server.rejected_shutdown >= 0  # counter exists and is consistent


class TestRemoteShell:
    def test_shell_runs_commands_remotely(self, client):
        output = client.shell("g.V.has('age', T.gt, 28).name")
        assert "'marko'" in output and "'josh'" in output
        translated = client.shell(":translate g.v(1).out.name")
        assert "SELECT" in translated

    def test_remote_stats_includes_server_section(self, client):
        client.shell("g.V.name")
        output = client.shell(":stats")
        assert "server:" in output
        assert "active sessions" in output
        assert f"this session: #{client.session_id}" in output
        assert f"session: #{client.session_id}" in output  # last-query line

    def test_quit_is_client_side(self, client):
        with pytest.raises(WireError) as excinfo:
            client.shell(":quit")
        assert excinfo.value.code == protocol.BAD_REQUEST


class TestStatementTimeout:
    def test_set_statement_timeout_roundtrip(self, client):
        result = client.set_statement_timeout(250)
        assert result["settings"]["statement_timeout_ms"] == 250
        result = client.set_statement_timeout(None)
        assert result["settings"]["statement_timeout_ms"] is None

    def test_metrics_flow_into_stats(self, client):
        client.run("g.V.name")
        stats = client.stats()
        server_stats = stats["server"]
        assert server_stats["requests"] >= 1
        assert server_stats["latency"]["count"] >= 1
        assert server_stats["latency"]["p95_ms"] >= 0
        assert stats["session"]["id"] == client.session_id

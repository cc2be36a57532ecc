"""Coordinator serving, failure typing, and client retry classification.

Covers the wire-visible behavior of the sharded cluster: the
coordinator speaks the unmodified framed-JSON protocol (existing clients
work transparently), shard-local ops return typed errors instead of
half-answers, a down or version-mismatched worker surfaces as a typed
error rather than a hang, and the client's declarative
retryable-operation table (:func:`repro.client.classify_idempotent`)
only ever re-sends provably safe requests.
"""

import pytest

from repro.client import SQLGraphClient, classify_idempotent
from repro.core import SQLGraphStore
from repro.datasets.tinker import paper_figure_graph
from repro.server import SQLGraphServer
from repro.server import protocol
from repro.server.protocol import WireError, code_for_exception
from repro.sharding import CoordinatorServer, ShardedStore, partition_graph
from repro.sharding.router import ShardUnavailableError


@pytest.fixture
def shard_servers():
    servers = []
    for subgraph in partition_graph(paper_figure_graph(), 2):
        store = SQLGraphStore()
        store.load_graph(subgraph)
        servers.append(SQLGraphServer(store, port=0, max_workers=4).start())
    yield servers
    for server in servers:
        server.shutdown(drain_timeout_s=1.0)


@pytest.fixture
def coordinator(shard_servers):
    store = ShardedStore.connect(
        [(server.host, server.port) for server in shard_servers]
    )
    server = CoordinatorServer(store, port=0, max_workers=4).start()
    yield server
    server.shutdown(drain_timeout_s=1.0)
    store.close()


@pytest.fixture
def client(coordinator):
    with SQLGraphClient("127.0.0.1", coordinator.port) as client:
        yield client


class TestCoordinatorServing:
    def test_existing_client_works_transparently(self, client):
        assert sorted(client.run("g.V.name")) == \
            ["josh", "lop", "marko", "vadas"]
        result = client.query("g.v(1).out('knows').name")
        assert sorted(row[0] for row in result.rows) == ["josh", "vadas"]

    def test_query_stats_carry_sharding_section(self, client):
        result = client.query("g.v(1).name")
        assert result.stats["sharding"]["mode"] == "forward"
        result = client.query("g.v(1).out.name")
        assert result.stats["sharding"]["mode"] == "scatter"

    def test_stats_include_per_shard_health(self, client):
        payload = client.stats()
        shards = payload["server"]["shards"]
        assert len(shards) == 2
        assert all(entry["ok"] for entry in shards)

    def test_shell_shards_command(self, client):
        output = client.shell(":shards")
        assert output.count("shard ") == 2
        assert "up" in output

    def test_shell_guards_shard_local_commands(self, client):
        for line in (":sql SELECT 1", ":pagerank", ":translate g.V",
                     ":checkpoint"):
            output = client.shell(line)
            assert "shard-local" in output

    def test_shell_sharded_stats(self, client):
        client.run("g.v(1).out.name")
        output = client.shell(":stats")
        assert "2 shards" in output
        assert "4 vertices / 5 edges" in output

    def test_new_session_does_not_inherit_last_query(self, shard_servers):
        store = ShardedStore.connect(
            [(server.host, server.port) for server in shard_servers]
        )
        # one worker thread serves both sessions, one after the other
        server = CoordinatorServer(store, port=0, max_workers=1).start()
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
            store.close()

    def test_transactions_rejected_typed(self, client):
        for call in (client.begin, client.commit, client.rollback):
            with pytest.raises(WireError) as excinfo:
                call()
            assert excinfo.value.code == protocol.TRANSACTION_ERROR
            assert "coordinator" in str(excinfo.value)

    def test_sql_and_analytics_rejected_typed(self, client):
        with pytest.raises(WireError) as excinfo:
            client.sql("SELECT COUNT(*) FROM va")
        assert excinfo.value.code == protocol.BAD_REQUEST
        with pytest.raises(WireError) as excinfo:
            client.pagerank()
        assert excinfo.value.code == protocol.BAD_REQUEST

    def test_internal_ops_rejected_typed(self, client):
        for call in (lambda: client.hop("out", [1]),
                     lambda: client.fetch(vids=[1])):
            with pytest.raises(WireError) as excinfo:
                call()
            assert excinfo.value.code == protocol.BAD_REQUEST

    def test_crud_through_coordinator(self, client):
        vid = client.crud("add_vertex", properties={"name": "zoe"})
        assert vid == 5
        assert client.crud("get_vertex", vertex_id=vid) is not None
        assert client.crud("remove_vertex", vertex_id=vid) is True

    def test_requires_sharded_store(self):
        store = SQLGraphStore()
        store.load_graph(paper_figure_graph())
        with pytest.raises(TypeError, match="ShardedStore"):
            CoordinatorServer(store)


class TestShardFailureTyping:
    def test_dead_shard_is_typed_not_hung(self, shard_servers,
                                          coordinator):
        shard_servers[1].shutdown(drain_timeout_s=0.2)
        with SQLGraphClient("127.0.0.1", coordinator.port,
                            retries=0) as client:
            with pytest.raises(WireError) as excinfo:
                client.run("g.V.name")
        assert excinfo.value.code == protocol.SHARD_UNAVAILABLE

    def test_health_marks_dead_shard(self, shard_servers, coordinator):
        shard_servers[0].shutdown(drain_timeout_s=0.2)
        report = coordinator.store.shard_health()
        assert report[0]["ok"] is False
        assert report[1]["ok"] is True

    def test_forward_to_live_shard_still_serves(self, shard_servers,
                                                coordinator):
        from repro.sharding.partition import shard_of

        # kill shard 1; single-shard queries owned by shard 0 keep working
        dead = 1
        shard_servers[dead].shutdown(drain_timeout_s=0.2)
        survivor_vid = next(
            vid for vid in (1, 2, 3, 4) if shard_of(vid, 2) != dead
        )
        with SQLGraphClient("127.0.0.1", coordinator.port,
                            retries=0) as client:
            values = client.run(f"g.v({survivor_vid}).name")
            assert len(values) == 1

    def test_shard_unavailable_is_wire_typed(self):
        error = ShardUnavailableError(3, ("127.0.0.1", 1), OSError("down"))
        assert error.code == protocol.SHARD_UNAVAILABLE
        assert error.shard_index == 3
        # the coordinator relays the typed code instead of flattening
        # worker failures to INTERNAL_ERROR
        assert code_for_exception(error) == protocol.SHARD_UNAVAILABLE

    def test_worker_wire_errors_relay_through_coordinator(self):
        error = WireError(protocol.UNSUPPORTED_PROTOCOL, "v99")
        assert code_for_exception(error) == protocol.UNSUPPORTED_PROTOCOL


class TestVersionNegotiationMismatch:
    """A coordinator must not hang on a version-skewed worker shard."""

    def test_mismatched_shard_yields_typed_error(self, shard_servers,
                                                 coordinator,
                                                 monkeypatch):
        import repro.server.server as server_module

        # connect (and handshake) with the coordinator *before* the skew:
        # existing sessions keep protocol v1
        with SQLGraphClient("127.0.0.1", coordinator.port,
                            retries=0, request_timeout_s=10.0) as client:
            # now every *new* handshake in-process demands protocol 99 —
            # the coordinator's fresh pool connections to the workers
            # are rejected exactly like a version-skewed deployment
            monkeypatch.setattr(server_module, "PROTOCOL_VERSION", 99)
            with pytest.raises(WireError) as excinfo:
                client.run("g.V.name")
            assert excinfo.value.code == protocol.UNSUPPORTED_PROTOCOL
            assert "protocol" in str(excinfo.value).lower()

    def test_client_shard_mismatch_is_typed(self, shard_servers,
                                            monkeypatch):
        # direct client -> worker skew: same typed rejection, no hang
        import repro.client as client_module

        monkeypatch.setattr(client_module, "PROTOCOL_VERSION", 99)
        with pytest.raises(WireError) as excinfo:
            SQLGraphClient("127.0.0.1", shard_servers[0].port).connect()
        assert excinfo.value.code == protocol.UNSUPPORTED_PROTOCOL


class TestRetryClassification:
    """The declarative retryable-op table (satellite: analytics was
    wrongly non-retryable before this table existed)."""

    @pytest.mark.parametrize("op", ["ping", "stats"])
    def test_metadata_ops_always_idempotent(self, op):
        assert classify_idempotent(op) is True
        assert classify_idempotent(op, in_transaction=True) is True

    @pytest.mark.parametrize("op", ["gremlin", "run", "analytics",
                                    "hop", "fetch"])
    def test_reads_idempotent_outside_transaction(self, op):
        assert classify_idempotent(op) is True
        assert classify_idempotent(op, in_transaction=True) is False

    def test_sql_classified_by_statement(self):
        reads = ["SELECT * FROM va", "  select 1", "EXPLAIN SELECT 1"]
        writes = ["INSERT INTO kv VALUES (1)", "DELETE FROM kv",
                  "UPDATE kv SET v = 1", "CREATE TABLE t (a INTEGER)"]
        for text in reads:
            assert classify_idempotent("sql", {"query": text}) is True
            assert classify_idempotent(
                "sql", {"query": text}, in_transaction=True
            ) is False
        for text in writes:
            assert classify_idempotent("sql", {"query": text}) is False

    def test_crud_classified_by_action(self):
        assert classify_idempotent(
            "crud", {"action": "get_vertex"}) is True
        for action in ("add_vertex", "add_edge", "remove_vertex",
                       "remove_edge", "set_vertex_property"):
            assert classify_idempotent("crud", {"action": action}) is False

    @pytest.mark.parametrize("op", ["begin", "commit", "rollback",
                                    "shell", "set", "crud", "unknown"])
    def test_everything_else_never_retried(self, op):
        assert classify_idempotent(op) is False


@pytest.fixture
def single_server():
    store = SQLGraphStore()
    store.load_graph(paper_figure_graph())
    server = SQLGraphServer(store, port=0, max_workers=4).start()
    yield server
    server.shutdown(drain_timeout_s=1.0)


class TestRetryBehavior:
    def _drop_socket(self, client):
        """Simulate the server side dropping the connection."""
        client._sock.close()

    def test_analytics_retries_across_reconnect(self, single_server):
        with SQLGraphClient("127.0.0.1", single_server.port) as client:
            first_session = client.session_id
            self._drop_socket(client)
            ranks = client.pagerank(max_iterations=5)
            assert len(ranks) == 4
            assert client.reconnects == 1
            assert client.session_id != first_session

    def test_gremlin_read_retries_across_reconnect(self, single_server):
        with SQLGraphClient("127.0.0.1", single_server.port) as client:
            self._drop_socket(client)
            assert sorted(client.run("g.V.name")) == \
                ["josh", "lop", "marko", "vadas"]
            assert client.reconnects == 1

    def test_write_never_retried_after_drop(self, single_server):
        with SQLGraphClient("127.0.0.1", single_server.port) as client:
            self._drop_socket(client)
            from repro.client import ClientError

            with pytest.raises(ClientError):
                client.crud("add_vertex", properties={"name": "nope"})
            assert client.reconnects == 0

    def test_no_retry_inside_transaction(self, single_server):
        with SQLGraphClient("127.0.0.1", single_server.port) as client:
            client.begin()
            self._drop_socket(client)
            from repro.client import ClientError

            with pytest.raises(ClientError):
                client.run("g.V.name")
            assert client.reconnects == 0

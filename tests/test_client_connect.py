"""``SQLGraphClient.connect`` closes its socket on every failed handshake.

A local listener misbehaves in one way per case — it drops the
connection, never replies, refuses the hello, answers with the wrong
protocol — and one case makes ``setsockopt`` raise before the first
byte is sent.  Each time ``connect()`` must raise and the socket it
opened must be closed: a client retrying against a broken server must
not leak one descriptor per attempt.
"""

import socket
import threading

import pytest

import repro.client as client_module
from repro.client import ClientError, SQLGraphClient
from repro.server import FrameAssembler, PROTOCOL_VERSION, WireError
from repro.server.protocol import (
    SERVER_BUSY,
    ConnectionClosedError,
    error_payload,
    recv_message,
    send_message,
)


def _drop(conn):
    conn.close()


def _silent(conn):
    recv_message(conn, FrameAssembler())
    conn.recv(1)  # hold the line open until the client gives up


def _refuse(conn):
    recv_message(conn, FrameAssembler())
    send_message(conn, {
        "id": None, "ok": False,
        "error": error_payload(SERVER_BUSY, "try later"),
    })


def _wrong_protocol(conn):
    recv_message(conn, FrameAssembler())
    send_message(conn, {"op": "hello", "protocol": PROTOCOL_VERSION + 1})


def _well_behaved(conn):
    recv_message(conn, FrameAssembler())
    send_message(conn, {
        "op": "hello", "protocol": PROTOCOL_VERSION, "session": 1,
    })
    conn.recv(1)


class Listener:
    """A local server handing each connection to *behave(conn)*."""

    def __init__(self, behave):
        self.behave = behave
        self.stopping = threading.Event()
        self.server = socket.socket()
        self.server.bind(("127.0.0.1", 0))
        self.server.listen(4)
        self.server.settimeout(0.05)
        self.port = self.server.getsockname()[1]
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    def _serve(self):
        while not self.stopping.is_set():
            try:
                conn, __ = self.server.accept()
            except socket.timeout:
                continue
            conn.settimeout(5)
            with conn:
                try:
                    self.behave(conn)
                except (OSError, ConnectionClosedError):
                    pass

    def close(self):
        self.stopping.set()
        self.thread.join(timeout=10)
        self.server.close()


@pytest.fixture
def listen():
    """``listen(behave)`` starts a listener; returns a client for it."""
    listeners = []

    def start(behave):
        listener = Listener(behave)
        listeners.append(listener)
        return SQLGraphClient(port=listener.port, connect_timeout_s=0.3)

    yield start
    for listener in listeners:
        listener.close()


@pytest.fixture
def opened(monkeypatch):
    """Every socket ``repro.client`` opens, in order."""
    sockets = []
    create = socket.create_connection

    def tracking(*args, **kwargs):
        sock = create(*args, **kwargs)
        sockets.append(sock)
        return sock

    monkeypatch.setattr(client_module.socket, "create_connection", tracking)
    return sockets


@pytest.mark.parametrize("behave, error", [
    (_drop, ClientError),
    (_silent, ClientError),
    (_refuse, WireError),
    (_wrong_protocol, ClientError),
], ids=["drops", "never-replies", "refuses", "wrong-protocol"])
def test_failed_handshake_closes_the_socket(listen, opened, behave, error):
    client = listen(behave)
    with pytest.raises(error):
        client.connect()
    assert len(opened) == 1
    assert opened[0].fileno() == -1
    assert not client.connected


def test_failing_setsockopt_closes_the_socket(listen, opened, monkeypatch):
    client = listen(_well_behaved)

    def refuse(sock, *args):
        raise OSError("setsockopt refused")

    with monkeypatch.context() as patch:
        patch.setattr(socket.socket, "setsockopt", refuse)
        with pytest.raises(OSError, match="setsockopt refused"):
            client.connect()
    assert len(opened) == 1
    assert opened[0].fileno() == -1
    assert not client.connected


def test_good_handshake_keeps_the_socket(listen, opened):
    """The control case: a listener answering properly leaves the
    client connected on the socket it opened."""
    client = listen(_well_behaved)
    try:
        assert client.connect() is client and client.connected
        assert client.session_id == 1
        assert opened[0].fileno() != -1
    finally:
        client.close()
    assert opened[0].fileno() == -1

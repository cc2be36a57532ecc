"""Regression fixture: the post-fix twin of ``pr10_connect_leak.py``.

The handshake as ``SQLGraphClient.connect`` runs it now: one ``try``
owns the socket until the handshake fully succeeds, and any failure —
transport, timeout, a bad reply — closes it before the exception
escapes.  ``release-on-all-paths`` must report nothing here.
"""

import socket

PROTOCOL_VERSION = 1


class ClientError(Exception):
    pass


class FixedClient:
    def connect(self):
        if self._sock is not None:
            return self
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        try:
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            assembler = FrameAssembler()
            try:
                send_message(sock, {"op": "hello",
                                    "protocol": PROTOCOL_VERSION})
                reply = recv_message(sock, assembler)
            except (OSError, ConnectionClosedError, FrameError) as exc:
                raise ClientError(f"handshake failed: {exc}") from None
            if reply is None:
                raise ClientError("handshake timed out")
            if reply.get("protocol") != PROTOCOL_VERSION:
                raise ClientError(f"unexpected handshake reply: {reply!r}")
            sock.settimeout(self.request_timeout_s)
        except BaseException:
            sock.close()
            raise
        self._sock = sock
        self._assembler = assembler
        return self

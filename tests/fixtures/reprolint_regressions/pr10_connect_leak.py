"""Regression fixture: the client handshake socket leak, frozen.

This is ``SQLGraphClient.connect`` as it shipped before the fix, trimmed
to the handshake.  The socket leaks on two exception paths:

* ``setsockopt`` runs before the ``try``, so a failure there escapes
  with the socket open;
* ``ClientError("handshake timed out")`` is raised inside the ``try``,
  but the ``except`` only catches transport errors, so it too escapes
  without ``sock.close()``.

``tests/test_reprolint_regressions.py`` asserts ``release-on-all-paths``
flags this function.  Do NOT "fix" this file.
"""

import socket

PROTOCOL_VERSION = 1


class ClientError(Exception):
    pass


class BrokenClient:
    def connect(self):
        if self._sock is not None:
            return self
        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout_s
        )
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        assembler = FrameAssembler()
        try:
            send_message(sock, {"op": "hello", "protocol": PROTOCOL_VERSION})
            reply = recv_message(sock, assembler)
            if reply is None:
                raise ClientError("handshake timed out")
        except (OSError, ConnectionClosedError, FrameError) as exc:
            sock.close()
            raise ClientError(f"handshake failed: {exc}") from None
        if reply.get("protocol") != PROTOCOL_VERSION:
            sock.close()
            raise ClientError(f"unexpected handshake reply: {reply!r}")
        sock.settimeout(self.request_timeout_s)
        self._sock = sock
        self._assembler = assembler
        return self

"""A small blocking client pool, one per shard.

The coordinator fans a hop out to several shards from parallel threads,
and each thread needs a connection of its own (the wire protocol is one
request in flight per connection).  The pool keeps idle
:class:`~repro.client.SQLGraphClient` connections around between
requests and discards any connection whose socket died — the next
checkout transparently dials a fresh one, which is how the router
reconnects after a shard restart.
"""

from __future__ import annotations

import threading
from collections import deque
from contextlib import contextmanager

from repro.client import SQLGraphClient


class ShardClientPool:
    """Reusable client connections to one shard server.

    :param shard_index: position of the shard in the cluster (labels
        errors and health reports).
    :param host/port: shard server address.
    :param max_idle: connections kept warm between requests; checkouts
        beyond this are created on demand and closed on return.
    """

    def __init__(self, shard_index, host, port, max_idle=4,
                 connect_timeout_s=5.0, request_timeout_s=30.0,
                 client_factory=SQLGraphClient):
        self.shard_index = shard_index
        self.host = host
        self.port = port
        self.max_idle = max_idle
        self.connect_timeout_s = connect_timeout_s
        self.request_timeout_s = request_timeout_s
        self.client_factory = client_factory
        self._idle = deque()
        self._guard = threading.Lock()
        self._closed = False

    # ------------------------------------------------------------------
    @contextmanager
    def client(self):
        """Check a connected client out, return it on success.

        A client whose connection died inside the block (the
        ``SQLGraphClient`` drops its socket on any transport error) is
        discarded instead of returned, so one broken socket never
        poisons later requests.
        """
        with self._guard:
            if self._closed:
                raise RuntimeError(
                    f"client pool for shard {self.shard_index} is closed"
                )
            client = self._idle.popleft() if self._idle else None
        if client is None:
            client = self.client_factory(
                self.host, self.port,
                connect_timeout_s=self.connect_timeout_s,
                request_timeout_s=self.request_timeout_s,
            )
        try:
            yield client
        finally:
            returned = False
            if client.connected:
                with self._guard:
                    if not self._closed and len(self._idle) < self.max_idle:
                        self._idle.append(client)
                        returned = True
            if not returned:
                client.close()

    def close(self):
        with self._guard:
            self._closed = True
            idle, self._idle = list(self._idle), deque()
        for client in idle:
            client.close()

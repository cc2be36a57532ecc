"""The SQLGraph wire protocol: framed JSON messages over a byte stream.

Every message — request, response, or error — is one *frame*::

    +----------------+----------------+======================+
    | length (u32le) | crc32 (u32le)  | payload (length B)   |
    +----------------+----------------+======================+

``payload`` is a UTF-8 JSON object.  The CRC32 covers the payload, so a
torn or bit-rotted frame is detected before JSON parsing; anything that
fails the length/CRC/JSON gate is a fatal :class:`FrameError` and the
connection is closed (stream framing cannot resynchronize after garbage).

Handshake
---------

The first frame on a connection must be a client *hello*::

    {"op": "hello", "protocol": 1, "client": "repro-client/1.0"}

The server answers with its own hello carrying the negotiated protocol
version and the assigned session id, or an ``UNSUPPORTED_PROTOCOL`` error
frame followed by a close when the major version does not match.

Requests and responses
----------------------

Requests carry a client-chosen ``id`` (echoed verbatim in the response so
clients can detect desynchronization) and an ``op``::

    {"id": 7, "op": "sql", "query": "SELECT ...", "params": [1]}

Success responses are ``{"id": 7, "ok": true, "result": {...}}``; failures
are ``{"id": 7, "ok": false, "error": {"code": "...", "message": "...",
"retryable": false}}``.  Error codes are the closed set below — clients
dispatch on the code, never on message text.  ``retryable`` errors left
the store unchanged; a client may safely re-send the same request.

See ``docs/SERVER.md`` for the full specification.
"""

from __future__ import annotations

import json
import struct
import zlib

from repro.graph.analytics import (
    AnalyticsCancelledError,
    AnalyticsError,
    AnalyticsTimeoutError,
)
from repro.gremlin.errors import (
    ClosureError,
    GremlinError,
    GremlinSyntaxError,
    UnsupportedPipeError,
)
from repro.relational.errors import (
    BindError,
    CatalogError,
    ConstraintError,
    LockTimeoutError,
    SqlSyntaxError,
    TransactionError,
    TypeMismatchError,
)

#: protocol major version; a client and server must agree exactly
PROTOCOL_VERSION = 1

#: frame header: payload length + CRC32 of the payload, little-endian u32s
FRAME = struct.Struct("<II")

#: refuse frames larger than this (defends the server against a garbage
#: length prefix allocating gigabytes)
MAX_FRAME_BYTES = 8 * 1024 * 1024


# ----------------------------------------------------------------------
# error codes
# ----------------------------------------------------------------------
#: framing / handshake / request-shape problems (fatal, connection closes)
PROTOCOL_ERROR = "PROTOCOL_ERROR"
UNSUPPORTED_PROTOCOL = "UNSUPPORTED_PROTOCOL"
BAD_REQUEST = "BAD_REQUEST"

#: serving-layer conditions
SERVER_BUSY = "SERVER_BUSY"
SHUTTING_DOWN = "SHUTTING_DOWN"
SESSION_IDLE = "SESSION_IDLE"
STATEMENT_TIMEOUT = "STATEMENT_TIMEOUT"

#: engine exceptions, by family
LOCK_TIMEOUT = "LOCK_TIMEOUT"
SQL_SYNTAX = "SQL_SYNTAX"
BIND_ERROR = "BIND_ERROR"
TYPE_MISMATCH = "TYPE_MISMATCH"
CONSTRAINT_VIOLATION = "CONSTRAINT_VIOLATION"
CATALOG_ERROR = "CATALOG_ERROR"
TRANSACTION_ERROR = "TRANSACTION_ERROR"
GREMLIN_ERROR = "GREMLIN_ERROR"
INTERNAL_ERROR = "INTERNAL_ERROR"

#: a sharded coordinator could not reach a worker shard
SHARD_UNAVAILABLE = "SHARD_UNAVAILABLE"

#: codes a client may retry without risking a duplicated effect: the
#: request was rejected before (or instead of) mutating the store
RETRYABLE_CODES = frozenset(
    {SERVER_BUSY, SHUTTING_DOWN, LOCK_TIMEOUT, STATEMENT_TIMEOUT}
)

#: every other code: retrying the same request verbatim cannot succeed
#: (bad input, schema problems) or may duplicate an effect the server
#: might already have applied (INTERNAL_ERROR mid-mutation).  The two
#: sets partition the code space; ``error-code-conformance`` checks that
#: no code is left unclassified and none appears in both.
NON_RETRYABLE_CODES = frozenset(
    {
        PROTOCOL_ERROR,
        UNSUPPORTED_PROTOCOL,
        BAD_REQUEST,
        SESSION_IDLE,
        SQL_SYNTAX,
        BIND_ERROR,
        TYPE_MISMATCH,
        CONSTRAINT_VIOLATION,
        CATALOG_ERROR,
        TRANSACTION_ERROR,
        GREMLIN_ERROR,
        INTERNAL_ERROR,
        SHARD_UNAVAILABLE,
    }
)

#: engine exception type -> wire error code (order matters: subclasses
#: before base classes)
_EXCEPTION_CODES = (
    (AnalyticsTimeoutError, STATEMENT_TIMEOUT),
    (AnalyticsCancelledError, SHUTTING_DOWN),
    (AnalyticsError, BAD_REQUEST),
    (LockTimeoutError, LOCK_TIMEOUT),
    (SqlSyntaxError, SQL_SYNTAX),
    (BindError, BIND_ERROR),
    (TypeMismatchError, TYPE_MISMATCH),
    (ConstraintError, CONSTRAINT_VIOLATION),
    (CatalogError, CATALOG_ERROR),
    (TransactionError, TRANSACTION_ERROR),
    (GremlinSyntaxError, GREMLIN_ERROR),
    (UnsupportedPipeError, GREMLIN_ERROR),
    (ClosureError, GREMLIN_ERROR),
    (GremlinError, GREMLIN_ERROR),
)


def code_for_exception(exc):
    """Map an engine exception to its wire error code.

    A :class:`WireError` keeps its own code — a coordinator relaying a
    worker shard's typed failure must not flatten it to INTERNAL_ERROR.
    """
    if isinstance(exc, WireError):
        return exc.code
    for exc_type, code in _EXCEPTION_CODES:
        if isinstance(exc, exc_type):
            return code
    return INTERNAL_ERROR


def error_payload(code, message, retryable=None):
    """The ``error`` object of a failure response.

    ``retryable`` defaults to the code's static classification; a caller
    that knows more about this *specific* failure (e.g. a coordinator
    that lost a shard mid-way through an idempotent read fan-out) may
    override it.
    """
    if retryable is None:
        retryable = code in RETRYABLE_CODES
    return {
        "code": code,
        "message": message,
        "retryable": retryable,
    }


class FrameError(Exception):
    """A frame failed the length/CRC/JSON gate; the stream is unusable."""


class ConnectionClosedError(Exception):
    """The peer closed (or half-closed) the connection."""


class WireError(Exception):
    """A typed error response from the server (client side).

    :ivar code: one of the error-code constants above.
    :ivar retryable: whether re-sending the same request is safe.
    """

    def __init__(self, code, message, retryable=False):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message
        self.retryable = retryable

    @classmethod
    def from_payload(cls, error):
        return cls(
            error.get("code", INTERNAL_ERROR),
            error.get("message", ""),
            bool(error.get("retryable", False)),
        )


# ----------------------------------------------------------------------
# encoding / decoding
# ----------------------------------------------------------------------
def encode_frame(message):
    """Serialize one JSON-able message into a framed byte string."""
    payload = json.dumps(message, separators=(",", ":")).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameError(
            f"frame payload of {len(payload)} bytes exceeds the "
            f"{MAX_FRAME_BYTES}-byte limit"
        )
    return FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def decode_payload(payload):
    """Parse a verified payload; raises :class:`FrameError` on bad JSON."""
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"undecodable frame payload: {exc}") from None
    if not isinstance(message, dict):
        raise FrameError("frame payload must be a JSON object")
    return message


class FrameAssembler:
    """Incremental frame parser: feed bytes, take out decoded messages.

    The assembler owns the connection's receive buffer, so partial reads
    (half a header, a frame split across TCP segments) are handled
    naturally: :meth:`next_message` returns ``None`` until a whole intact
    frame is buffered.  Any framing violation raises :class:`FrameError` —
    the caller must answer with a ``PROTOCOL_ERROR`` frame and close.
    """

    def __init__(self, max_frame_bytes=MAX_FRAME_BYTES):
        self.max_frame_bytes = max_frame_bytes
        self._buffer = bytearray()

    def feed(self, data):
        self._buffer.extend(data)

    def next_message(self):
        """Decode and remove the first buffered frame (``None`` if short)."""
        if len(self._buffer) < FRAME.size:
            return None
        length, crc = FRAME.unpack_from(self._buffer)
        if length > self.max_frame_bytes:
            raise FrameError(
                f"oversized frame: {length} bytes "
                f"(limit {self.max_frame_bytes})"
            )
        end = FRAME.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[FRAME.size:end])
        if zlib.crc32(payload) != crc:
            raise FrameError("frame CRC mismatch")
        del self._buffer[:end]
        return decode_payload(payload)


# ----------------------------------------------------------------------
# socket helpers (blocking sockets, used by both client and server)
# ----------------------------------------------------------------------
RECV_CHUNK = 64 * 1024


def send_message(sock, message):
    """Frame and send one message over a blocking socket."""
    sock.sendall(encode_frame(message))


def recv_message(sock, assembler):
    """Block until one whole message arrives (honours the socket timeout).

    Returns ``None`` when the socket timeout expires with an *empty or
    incomplete* frame pending — callers poll this to interleave idle /
    shutdown checks.  Raises :class:`ConnectionClosedError` at EOF and
    :class:`FrameError` on framing violations.
    """
    import socket as _socket

    while True:
        message = assembler.next_message()
        if message is not None:
            return message
        try:
            data = sock.recv(RECV_CHUNK)
        except _socket.timeout:
            return None
        except OSError as exc:
            raise ConnectionClosedError(str(exc)) from None
        if not data:
            raise ConnectionClosedError("peer closed the connection")
        assembler.feed(data)


def jsonable_rows(rows):
    """Coerce result rows into JSON-marshallable lists."""
    return [list(row) for row in rows]

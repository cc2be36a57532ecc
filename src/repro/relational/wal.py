"""Write-ahead logging: record framing, group commit, torn-tail detection.

The log is a single append-only file of framed records::

    +----------------+----------------+======================+
    | length (u32le) | crc32 (u32le)  | payload (length B)   |
    +----------------+----------------+======================+

``payload`` is the pickle of ``(lsn, kind, txid, data)``.  LSNs are
monotonically increasing record sequence numbers that survive log
truncation (checkpoints persist the latest LSN in the snapshot), so a
recovery that finds records already covered by the snapshot simply skips
them.  A record whose frame is incomplete or whose CRC does not match is a
*torn tail*: it and everything after it is discarded — by construction that
can only be the unsynced suffix of the last crash.

Record kinds
------------

=============  =====================================================
``insert``     redo: row ``data=(table, rid, row)``
``update``     redo+undo images ``data=(table, rid, new_row, old_row)``
``delete``     undo image ``data=(table, rid, old_row)``
``ddl``        statement text ``data=sql`` (replayed through the parser)
``meta``       durable key/value ``data=(key, value)`` (non-transactional)
``commit``     transaction ``txid`` is durable
``abort``      transaction ``txid`` rolled back
``checkpoint`` first record of a fresh log, ``data={"snapshot_lsn": n}``
=============  =====================================================

Transaction id ``0`` means *autocommitted*: the record is made durable by
the next commit point and recovery redoes it unconditionally.  Explicit
transactions log their ops under a nonzero txid; only ops whose ``commit``
record survives in the log are redone (losers are skipped wholesale, which
is why no undo pass is needed — see docs/ARCHITECTURE.md).

Durability knobs (environment, mirrored by constructor kwargs)
--------------------------------------------------------------

``REPRO_WAL_FSYNC``
    ``always`` — fsync at every commit point (fsync-per-commit);
    ``group`` — batched fsync: at most one fsync per
    ``REPRO_WAL_GROUP_WINDOW_MS`` window, commits inside the window return
    after the OS write only (the default);
    ``off`` — never fsync (buffered writes still reach the OS at every
    commit point, so a *process* crash loses nothing — only an OS/power
    failure can).
``REPRO_WAL_GROUP_WINDOW_MS``
    group-commit batching window in milliseconds (default 5).
``REPRO_WAL_CHECKPOINT_EVERY``
    records between automatic checkpoints (default 10000; 0 disables).

A value of either number that does not parse, or is negative, raises
``ValueError`` naming the variable, as an unknown fsync mode does.
"""

from __future__ import annotations

import os
import pickle
import struct
import threading
import zlib
from time import monotonic

from repro.relational.settings import env_number

#: frame header: payload length + CRC32 of the payload, little-endian u32s
FRAME = struct.Struct("<II")

FSYNC_ALWAYS = "always"
FSYNC_GROUP = "group"
FSYNC_OFF = "off"
FSYNC_MODES = (FSYNC_ALWAYS, FSYNC_GROUP, FSYNC_OFF)


def resolve_fsync_mode(explicit=None):
    """Fsync mode from an explicit value or ``REPRO_WAL_FSYNC``."""
    mode = explicit or os.environ.get("REPRO_WAL_FSYNC", "") or FSYNC_GROUP
    mode = mode.strip().lower()
    if mode not in FSYNC_MODES:
        raise ValueError(
            f"unknown WAL fsync mode {mode!r} (expected one of {FSYNC_MODES})"
        )
    return mode


def resolve_group_window(explicit=None):
    """Group-commit window in seconds (``REPRO_WAL_GROUP_WINDOW_MS``)."""
    if explicit is not None:
        return max(0.0, float(explicit)) / 1000.0
    return env_number("REPRO_WAL_GROUP_WINDOW_MS", 5.0) / 1000.0


def resolve_checkpoint_every(explicit=None):
    """Auto-checkpoint record threshold (``REPRO_WAL_CHECKPOINT_EVERY``)."""
    if explicit is not None:
        return max(0, int(explicit))
    return env_number("REPRO_WAL_CHECKPOINT_EVERY", 10_000, parse=int)


class TornTail:
    """Where and why a log scan stopped before end-of-file."""

    __slots__ = ("offset", "reason")

    def __init__(self, offset, reason):
        self.offset = offset
        self.reason = reason

    def __repr__(self):
        return f"TornTail(offset={self.offset}, reason={self.reason!r})"


def scan_log(path):
    """Read every intact record of the log file at *path*.

    Returns ``(records, valid_end, torn)`` where *records* is a list of
    ``(lsn, kind, txid, data, end_offset)`` tuples, *valid_end* is the byte
    offset of the last intact frame boundary, and *torn* is a
    :class:`TornTail` (or ``None``) describing a discarded tail.
    """
    records = []
    valid_end = 0
    torn = None
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except FileNotFoundError:
        return records, valid_end, torn
    offset = 0
    size = len(blob)
    while offset < size:
        if offset + FRAME.size > size:
            torn = TornTail(offset, "truncated frame header")
            break
        length, crc = FRAME.unpack_from(blob, offset)
        start = offset + FRAME.size
        end = start + length
        if end > size:
            torn = TornTail(offset, "truncated payload")
            break
        payload = blob[start:end]
        if zlib.crc32(payload) != crc:
            torn = TornTail(offset, "crc mismatch")
            break
        try:
            lsn, kind, txid, data = pickle.loads(payload)
        except Exception:  # torn-tail detection: any unpickling failure means a partial write, by design
            torn = TornTail(offset, "undecodable payload")
            break
        records.append((lsn, kind, txid, data, end))
        valid_end = end
        offset = end
    return records, valid_end, torn


class WriteAheadLog:
    """One append-only log file plus its durability policy and counters.

    The log object is created closed; :meth:`open` positions it for
    appending (truncating any torn tail recovery detected).  All appends are
    serialized by an internal lock; the *deciding* of when to fsync is
    :meth:`commit_point`, called by the database at every statement /
    transaction commit boundary.
    """

    def __init__(self, path, fsync=None, group_window_ms=None):
        self.path = path
        self.fsync_mode = resolve_fsync_mode(fsync)
        self.group_window_s = resolve_group_window(group_window_ms)
        self._file = None
        self._lock = threading.Lock()
        self._local = threading.local()
        self._last_fsync = 0.0  # guarded-by: _lock
        self._unsynced = False  # guarded-by: _lock
        self.last_lsn = 0  # guarded-by: _lock
        # counters (see docs/OBSERVABILITY.md); replayed/torn_dropped are
        # only written during single-threaded recovery, so they stay
        # outside the lock discipline
        self.records = 0  # guarded-by: _lock
        self.fsyncs = 0  # guarded-by: _lock
        self.replayed = 0
        self.torn_dropped = 0
        self.checkpoints = 0  # guarded-by: _lock
        self.records_since_checkpoint = 0  # guarded-by: _lock

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def open(self, append_at=None, next_lsn=None):
        """Open the file for appending.

        :param append_at: byte offset to truncate to first (recovery passes
            the end of the last intact record to drop a torn tail).
        :param next_lsn: continue LSN numbering from here.
        """
        if next_lsn is not None:
            with self._lock:
                self.last_lsn = max(self.last_lsn, next_lsn - 1)
        mode = "r+b" if os.path.exists(self.path) else "w+b"
        self._file = open(self.path, mode)
        if append_at is not None:
            self._file.truncate(append_at)
        self._file.seek(0, os.SEEK_END)

    def close(self):
        if self._file is None:
            return
        self.flush()
        self._fsync()
        self._file.close()
        self._file = None

    @property
    def closed(self):
        return self._file is None

    # ------------------------------------------------------------------
    # logging control (per-thread pause for rollback/replay compensation)
    # ------------------------------------------------------------------
    @property
    def active(self):
        """False while this thread runs unlogged work (undo, replay)."""
        return self._file is not None and not getattr(
            self._local, "paused", False
        )

    def pause(self):
        """``with wal.pause():`` — suspend logging on this thread."""
        wal = self

        class _Paused:
            def __enter__(self):
                wal._local.paused = True
                return wal

            def __exit__(self, exc_type, exc, tb):
                wal._local.paused = False
                return False

        return _Paused()

    # ------------------------------------------------------------------
    # appending
    # ------------------------------------------------------------------
    def append(self, kind, data=None, txid=0):
        """Frame and buffer one record of transaction *txid* (0: outside
        any transaction); returns its LSN.

        The record reaches the OS at the next :meth:`flush` /
        :meth:`commit_point` and the disk platter per the fsync policy.
        """
        with self._lock:
            self.last_lsn += 1
            lsn = self.last_lsn
            payload = pickle.dumps((lsn, kind, txid, data), protocol=5)
            self._file.write(FRAME.pack(len(payload), zlib.crc32(payload)))
            self._file.write(payload)
            self._unsynced = True
            self.records += 1
            self.records_since_checkpoint += 1
        return lsn

    def log_op(self, kind, txid, table_name, rid, *images):
        """Convenience for table-level redo/undo records."""
        return self.append(kind, (table_name, rid) + images, txid)

    def flush(self):
        """Push buffered frames to the OS (no fsync)."""
        with self._lock:
            if self._file is not None:
                self._file.flush()

    def commit_point(self):
        """A statement/transaction became durable-intent: flush, then fsync
        per the configured policy (see module docstring)."""
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            if not self._unsynced or self.fsync_mode == FSYNC_OFF:
                return
            if self.fsync_mode == FSYNC_ALWAYS:
                self._fsync_locked()
                return
            now = monotonic()
            if now - self._last_fsync >= self.group_window_s:
                self._fsync_locked()

    def sync(self):
        """Unconditional flush + fsync (close / checkpoint paths)."""
        with self._lock:
            if self._file is None:
                return
            self._file.flush()
            self._fsync_locked()

    def _fsync(self):
        with self._lock:
            self._fsync_locked()

    def _fsync_locked(self):  # holds: _lock
        if self._file is None:
            return
        os.fsync(self._file.fileno())
        self._last_fsync = monotonic()
        self._unsynced = False
        self.fsyncs += 1

    # ------------------------------------------------------------------
    # checkpoint support
    # ------------------------------------------------------------------
    def reset(self, snapshot_lsn):
        """Truncate the log after a snapshot and stamp a CHECKPOINT record.

        The snapshot already persists everything up to *snapshot_lsn*; the
        fresh log starts with a checkpoint marker carrying that LSN so a
        recovery can cross-check the pair.
        """
        with self._lock:
            self._file.seek(0)
            self._file.truncate(0)
            self.checkpoints += 1
            self.records_since_checkpoint = 0
        self.append("checkpoint", {"snapshot_lsn": snapshot_lsn}, txid=0)
        self.sync()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def stats(self):
        with self._lock:
            return {
                "records": self.records,
                "fsyncs": self.fsyncs,
                "replayed": self.replayed,
                "torn_dropped": self.torn_dropped,
                "checkpoints": self.checkpoints,
                "records_since_checkpoint": self.records_since_checkpoint,
                "fsync_mode": self.fsync_mode,
                "last_lsn": self.last_lsn,
            }

"""Unit tests for the WAL layer: framing, torn tails, group commit."""

import os
import struct

import pytest

from repro.relational.database import Database
from repro.relational.wal import (
    FRAME,
    FSYNC_ALWAYS,
    FSYNC_GROUP,
    FSYNC_OFF,
    WriteAheadLog,
    resolve_checkpoint_every,
    resolve_fsync_mode,
    resolve_group_window,
    scan_log,
)


@pytest.fixture
def log(tmp_path):
    wal = WriteAheadLog(str(tmp_path / "wal.log"), fsync="off")
    wal.open()
    yield wal
    wal.close()


class TestFraming:
    def test_round_trip(self, log):
        lsn1 = log.append("insert", ("t", (0, 0), (1, "a")))
        lsn2 = log.append("commit", None, txid=7)
        log.flush()
        records, valid_end, torn = scan_log(log.path)
        assert torn is None
        assert valid_end == os.path.getsize(log.path)
        assert [(r[0], r[1], r[2], r[3]) for r in records] == [
            (lsn1, "insert", 0, ("t", (0, 0), (1, "a"))),
            (lsn2, "commit", 7, None),
        ]

    def test_lsns_are_monotonic(self, log):
        lsns = [log.append("meta", ("k", i)) for i in range(5)]
        assert lsns == sorted(lsns)
        assert len(set(lsns)) == 5
        assert log.last_lsn == lsns[-1]

    def test_log_op_records_its_txid(self, log):
        """An op is logged under the txid its caller passes (the table's
        transaction, 0 in autocommit): no per-thread state decides it."""
        log.log_op("insert", 42, "t", (0, 0), (1,))
        log.log_op("insert", 0, "t", (0, 1), (2,))
        log.flush()
        records, __, __torn = scan_log(log.path)
        assert [r[2] for r in records] == [42, 0]
        assert records[0][3] == ("t", (0, 0), (1,))

    def test_pause_suspends_logging(self, log):
        log.append("meta", ("a", 1))
        with log.pause():
            assert not log.active
        assert log.active
        log.flush()
        records, __, __torn = scan_log(log.path)
        assert len(records) == 1

    def test_missing_file_scans_empty(self, tmp_path):
        records, valid_end, torn = scan_log(str(tmp_path / "nope.log"))
        assert records == [] and valid_end == 0 and torn is None


class TestTornTails:
    def fill(self, log, n=3):
        for i in range(n):
            log.append("meta", ("key", i))
        log.flush()
        records, valid_end, __ = scan_log(log.path)
        return records, valid_end

    def test_truncated_header(self, log):
        records, valid_end = self.fill(log)
        with open(log.path, "ab") as fh:
            fh.write(b"\x07\x00\x00")  # partial next-frame header
        got, end, torn = scan_log(log.path)
        assert torn is not None and torn.reason == "truncated frame header"
        assert torn.offset == valid_end
        assert end == valid_end
        assert len(got) == len(records)

    def test_truncated_payload(self, log):
        records, valid_end = self.fill(log)
        last_start = records[-2][4] if len(records) > 1 else 0
        with open(log.path, "r+b") as fh:
            fh.truncate(valid_end - 2)
        got, end, torn = scan_log(log.path)
        assert torn is not None and torn.reason == "truncated payload"
        assert end == last_start
        assert len(got) == len(records) - 1

    def test_crc_mismatch(self, log):
        records, valid_end = self.fill(log)
        last_start = records[-2][4]
        with open(log.path, "r+b") as fh:
            fh.seek(valid_end - 1)
            byte = fh.read(1)
            fh.seek(valid_end - 1)
            fh.write(bytes([byte[0] ^ 0x55]))
        got, end, torn = scan_log(log.path)
        assert torn is not None and torn.reason == "crc mismatch"
        assert end == last_start

    def test_open_truncates_torn_tail(self, tmp_path):
        path = str(tmp_path / "wal.log")
        wal = WriteAheadLog(path, fsync="off")
        wal.open()
        wal.append("meta", ("a", 1))
        wal.flush()
        wal.close()
        good = os.path.getsize(path)
        with open(path, "ab") as fh:
            fh.write(b"\x07\x00\x00")  # torn header
        records, valid_end, torn = scan_log(path)
        assert torn is not None
        wal2 = WriteAheadLog(path, fsync="off")
        wal2.open(append_at=valid_end, next_lsn=records[-1][0] + 1)
        wal2.append("meta", ("b", 2))
        wal2.close()
        records2, __, torn2 = scan_log(path)
        assert torn2 is None
        assert [r[3] for r in records2] == [("a", 1), ("b", 2)]
        assert os.path.getsize(path) > good


class TestGroupCommit:
    def test_always_fsyncs_every_commit_point(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.log"), fsync="always")
        wal.open()
        for i in range(5):
            wal.append("meta", ("k", i))
            wal.commit_point()
        assert wal.fsyncs == 5
        wal.close()

    def test_group_mode_batches_fsyncs(self, tmp_path):
        wal = WriteAheadLog(
            str(tmp_path / "w.log"), fsync="group", group_window_ms=10_000
        )
        wal.open()
        wal.append("meta", ("k", 0))
        wal.commit_point()  # first: window has never fired -> fsync
        first = wal.fsyncs
        for i in range(1, 50):
            wal.append("meta", ("k", i))
            wal.commit_point()
        assert wal.fsyncs == first  # all inside the window
        wal.close()

    def test_off_mode_never_fsyncs_at_commit(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.log"), fsync="off")
        wal.open()
        wal.append("meta", ("k", 1))
        wal.commit_point()
        assert wal.fsyncs == 0
        # but the record reached the OS: it is visible to a scan
        records, __, __torn = scan_log(wal.path)
        assert len(records) == 1
        wal.close()

    def test_commit_point_noop_when_nothing_unsynced(self, tmp_path):
        wal = WriteAheadLog(str(tmp_path / "w.log"), fsync="always")
        wal.open()
        wal.append("meta", ("k", 1))
        wal.commit_point()
        wal.commit_point()  # nothing new
        assert wal.fsyncs == 1
        wal.close()


class TestReset:
    def test_reset_truncates_and_stamps_checkpoint(self, log):
        for i in range(4):
            log.append("meta", ("k", i))
        last = log.last_lsn
        log.reset(last)
        records, __, torn = scan_log(log.path)
        assert torn is None
        assert len(records) == 1
        lsn, kind, txid, data, __end = records[0]
        assert kind == "checkpoint"
        assert data == {"snapshot_lsn": last}
        assert lsn == last + 1  # LSNs survive truncation
        assert log.records_since_checkpoint == 1
        assert log.checkpoints == 1


class TestKnobResolution:
    def test_fsync_mode(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAL_FSYNC", raising=False)
        assert resolve_fsync_mode() == FSYNC_GROUP
        assert resolve_fsync_mode("ALWAYS") == FSYNC_ALWAYS
        monkeypatch.setenv("REPRO_WAL_FSYNC", "off")
        assert resolve_fsync_mode() == FSYNC_OFF
        with pytest.raises(ValueError):
            resolve_fsync_mode("sometimes")

    def test_group_window(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAL_GROUP_WINDOW_MS", raising=False)
        assert resolve_group_window() == pytest.approx(0.005)
        assert resolve_group_window(20) == pytest.approx(0.020)
        monkeypatch.setenv("REPRO_WAL_GROUP_WINDOW_MS", "100")
        assert resolve_group_window() == pytest.approx(0.1)

    def test_checkpoint_every(self, monkeypatch):
        monkeypatch.delenv("REPRO_WAL_CHECKPOINT_EVERY", raising=False)
        assert resolve_checkpoint_every() == 10_000
        assert resolve_checkpoint_every(0) == 0
        monkeypatch.setenv("REPRO_WAL_CHECKPOINT_EVERY", "25")
        assert resolve_checkpoint_every() == 25

    @pytest.mark.parametrize("name, resolve, raw", [
        ("REPRO_WAL_GROUP_WINDOW_MS", resolve_group_window, "5ms"),
        ("REPRO_WAL_GROUP_WINDOW_MS", resolve_group_window, "-1"),
        ("REPRO_WAL_CHECKPOINT_EVERY", resolve_checkpoint_every, "-1"),
        ("REPRO_WAL_CHECKPOINT_EVERY", resolve_checkpoint_every, "2.5"),
        ("REPRO_WAL_CHECKPOINT_EVERY", resolve_checkpoint_every, "often"),
    ])
    def test_malformed_env_raises(self, monkeypatch, name, resolve, raw):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ValueError, match=f"{name}={raw!r}"):
            resolve()

    def test_env_knobs_reach_database(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_WAL_FSYNC", "always")
        monkeypatch.setenv("REPRO_WAL_CHECKPOINT_EVERY", "3")
        database = Database(path=str(tmp_path / "db"))
        assert database.wal.fsync_mode == FSYNC_ALWAYS
        assert database._wal_checkpoint_every == 3
        database.close()


class TestAutoCheckpoint:
    def test_auto_checkpoint_truncates_log(self, tmp_path):
        database = Database(
            path=str(tmp_path / "db"), wal_fsync="off",
            wal_checkpoint_every=5,
        )
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
        for i in range(20):
            database.execute(f"INSERT INTO t VALUES ({i})")
        assert database.wal.checkpoints >= 2
        assert database.wal.records_since_checkpoint < 10
        # recovery after auto-checkpoints still sees everything
        database.wal.flush()
        reopened = Database(path=str(tmp_path / "db"), wal_fsync="off")
        assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 20
        reopened.close()
        database.close()

    def test_unbounded_pool_snapshot_keeps_no_page_blobs(self, tmp_path):
        # an unbounded pool never evicts: a checkpoint serializes its
        # dirty pages into the snapshot without keeping a copy beside them
        path = str(tmp_path / "db")
        database = Database(path=path, wal_fsync="off")
        database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v STRING)")
        database.execute("INSERT INTO t VALUES " + ", ".join(
            f"({i}, 'v{i}')" for i in range(600)
        ))
        assert database.checkpoint()
        table = database.table("t")
        assert [table.page_blob(n) for n in range(table.page_count)] == [
            None
        ] * table.page_count
        # a page changed after one checkpoint reaches the next snapshot
        database.execute("UPDATE t SET v = 'changed' WHERE id = 7")
        assert database.checkpoint()
        database.wal.close()
        reopened = Database(path=path, wal_fsync="off")
        assert reopened.execute("SELECT COUNT(*) FROM t").scalar() == 600
        assert reopened.execute("SELECT v FROM t WHERE id = 7").scalar() == (
            "changed"
        )
        reopened.close()

    def test_frame_struct_is_eight_bytes(self):
        assert FRAME.size == 8
        assert FRAME.pack(1, 2) == struct.pack("<II", 1, 2)

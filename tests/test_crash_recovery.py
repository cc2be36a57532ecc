"""Crash-injection tests: recovery equals the committed prefix, always.

Built on :mod:`tests.crashkit`: a recorded random workload runs against a
durable database, then crashes are simulated by truncating (or
corrupting) a copy of the WAL at chosen byte offsets and reopening.  The
recovered state is compared against an in-memory oracle that executed
exactly the units whose commit point survived the cut.

The exhaustive every-record-boundary sweep is marked ``slow`` (deselect
with ``-m "not slow"``); a sampled sweep plus the targeted torn-tail,
corruption and checkpoint tests run in the default suite.
"""

import bisect
import shutil

import pytest

from repro.core import SQLGraphStore
from repro.datasets.random_graphs import random_property_graph
from repro.gremlin import GremlinInterpreter, parse_gremlin
from repro.relational.database import Database
from repro.relational.recovery import wal_path
from tests.crashkit import (
    Unit,
    assert_states_equal,
    crash_copy,
    database_state,
    generate_workload,
    oracle_database,
    record_boundaries,
    run_workload,
)
from tests.test_differential import normalize_interpreter, normalize_sql

WORKLOAD_SEED = 2026
WORKLOAD_SIZE = 220


@pytest.fixture(scope="module")
def recorded_workload(tmp_path_factory):
    """Run the recorded workload once; yields everything the sweeps need.

    Returns ``(source_dir, units, boundaries, oracle_states)`` where
    *oracle_states* is the ascending list of ``(end_offset, state)``
    snapshots — the oracle's state only changes at unit commit points, so
    each snapshot serves every cut up to the next one.
    """
    source = tmp_path_factory.mktemp("crash") / "source"
    units = generate_workload(WORKLOAD_SEED, WORKLOAD_SIZE)
    database = Database(
        path=str(source), wal_fsync="off", wal_checkpoint_every=0
    )
    run_workload(database, units)
    database.wal.flush()
    boundaries = [0] + record_boundaries(wal_path(str(source)))

    oracle = Database()
    oracle_states = [(0, database_state(oracle))]
    for unit in units:
        if unit.kind == "abort":
            continue
        if unit.kind == "auto":
            for sql in unit.statements:
                oracle.execute(sql)
        else:
            with oracle.transaction():
                for sql in unit.statements:
                    oracle.execute(sql)
        oracle_states.append((unit.end_offset, database_state(oracle)))
    # the live database stays open (simulating a process that never shut
    # down cleanly); crashes always operate on copies
    yield str(source), units, boundaries, oracle_states
    database.close()


def expected_state(oracle_states, cut_offset):
    """Oracle snapshot for the latest commit point at or below the cut."""
    offsets = [offset for offset, __ in oracle_states]
    position = bisect.bisect_right(offsets, cut_offset) - 1
    return oracle_states[position][1]


def reopen(directory):
    return Database(
        path=directory, wal_fsync="off", wal_checkpoint_every=0
    )


def sweep(source, boundaries, oracle_states, tmp_path, label):
    for i, cut in enumerate(boundaries):
        target = tmp_path / f"{label}{i}"
        crash_copy(source, str(target), cut_offset=cut)
        recovered = reopen(str(target))
        try:
            assert_states_equal(
                database_state(recovered),
                expected_state(oracle_states, cut),
                context=f"cut at byte {cut}",
            )
        finally:
            recovered.close()
            shutil.rmtree(target)


@pytest.mark.slow
def test_crash_sweep_every_record_boundary(recorded_workload, tmp_path):
    """Exhaustive: every intact-record boundary of a 220-unit workload."""
    source, __units, boundaries, oracle_states = recorded_workload
    assert len(boundaries) > WORKLOAD_SIZE  # txns write several records
    sweep(source, boundaries, oracle_states, tmp_path, "full")


def test_crash_sweep_sampled(recorded_workload, tmp_path):
    """Fast subset: every 9th boundary plus both extremes."""
    source, __units, boundaries, oracle_states = recorded_workload
    sampled = boundaries[::9]
    for edge in (boundaries[0], boundaries[1], boundaries[-1]):
        if edge not in sampled:
            sampled.append(edge)
    sweep(source, sorted(sampled), oracle_states, tmp_path, "sampled")


def test_mid_record_cut_is_torn_tail(recorded_workload, tmp_path):
    """A cut inside a record behaves like the previous boundary and is
    counted as a dropped torn tail."""
    source, __units, boundaries, oracle_states = recorded_workload
    for n, delta in ((len(boundaries) // 2, 3), (len(boundaries) - 2, 5)):
        boundary = boundaries[n]
        cut = boundary + delta  # strictly inside the next record
        assert cut < boundaries[n + 1]
        target = tmp_path / f"torn{n}"
        crash_copy(source, str(target), cut_offset=cut)
        recovered = reopen(str(target))
        try:
            assert recovered.wal.torn_dropped == 1
            assert_states_equal(
                database_state(recovered),
                expected_state(oracle_states, boundary),
                context=f"mid-record cut at byte {cut}",
            )
        finally:
            recovered.close()
            shutil.rmtree(target)


def test_corrupt_final_record_detected_by_crc(recorded_workload, tmp_path):
    """A flipped byte in the last record's payload fails the CRC; the
    record is discarded, not applied half-broken."""
    source, __units, boundaries, oracle_states = recorded_workload
    previous, last = boundaries[-2], boundaries[-1]
    corrupt_at = previous + 8 + (last - previous - 8) // 2  # inside payload
    target = tmp_path / "corrupt"
    crash_copy(source, str(target), corrupt_at=corrupt_at)
    recovered = reopen(str(target))
    try:
        assert recovered.wal.torn_dropped == 1
        assert_states_equal(
            database_state(recovered),
            expected_state(oracle_states, previous),
            context="corrupt final record",
        )
    finally:
        recovered.close()
        shutil.rmtree(target)


def test_corrupt_frame_header_detected(recorded_workload, tmp_path):
    """Corrupting a length header makes the frame unreadable; everything
    from that record on is dropped."""
    source, __units, boundaries, oracle_states = recorded_workload
    previous = boundaries[-2]
    target = tmp_path / "corrupt_header"
    crash_copy(source, str(target), corrupt_at=previous + 1)
    recovered = reopen(str(target))
    try:
        assert recovered.wal.torn_dropped == 1
        assert_states_equal(
            database_state(recovered),
            expected_state(oracle_states, previous),
            context="corrupt frame header",
        )
    finally:
        recovered.close()
        shutil.rmtree(target)


def test_checkpoint_then_crash(tmp_path):
    """Work before a checkpoint survives through the snapshot even when
    the post-checkpoint log is cut to nothing."""
    source = tmp_path / "ckpt"
    database = Database(
        path=str(source), wal_fsync="off", wal_checkpoint_every=0
    )
    units = generate_workload(7, 60)
    half = len(units) // 2
    run_workload(database, units[:half])
    assert database.checkpoint() is True
    pre_checkpoint = database_state(database)
    run_workload(database, units[half:])
    full = database_state(database)
    database.wal.flush()

    # crash losing the whole post-checkpoint log
    target = tmp_path / "after_ckpt"
    crash_copy(str(source), str(target), cut_offset=0)
    recovered = reopen(str(target))
    assert_states_equal(
        database_state(recovered), pre_checkpoint, context="snapshot only"
    )
    recovered.close()

    # crash losing nothing
    target2 = tmp_path / "after_all"
    crash_copy(str(source), str(target2))
    recovered2 = reopen(str(target2))
    assert_states_equal(database_state(recovered2), full, context="full log")
    recovered2.close()
    database.close()


def test_whole_table_delete_and_refill_sweep(tmp_path):
    """``DELETE FROM t`` + ``INSERT ... SELECT`` on a durable table, cut
    at every record boundary.

    The whole-table delete restarts the heap at page 0, so the refill
    reuses RIDs the checkpoint snapshot (and earlier log records) still
    hold rows under; replay has to tombstone those before the inserts
    land.  Multi-row statements sit in transactions so every unit is
    atomic in the log (see :mod:`tests.crashkit`).
    """
    source = tmp_path / "refill"
    setup = [
        "CREATE TABLE t (k INTEGER PRIMARY KEY, v STRING, n INTEGER)",
        "CREATE INDEX t_n ON t (n)",
        "CREATE INDEX t_v ON t (v) USING sorted",
        "CREATE TABLE src (k INTEGER, v STRING, n INTEGER)",
        "INSERT INTO src VALUES " + ", ".join(
            f"({k}, 'v{k % 5}', {k % 3})" for k in range(24)
        ),
        "INSERT INTO t SELECT k, v, n FROM src",
    ]
    units = [
        Unit("txn", ["DELETE FROM t",
                     "INSERT INTO t SELECT k, v, n FROM src WHERE k < 12"]),
        Unit("abort", ["DELETE FROM t",
                       "INSERT INTO t SELECT k + 100, v, n FROM src"]),
        Unit("auto", ["INSERT INTO t VALUES (500, 'single', 1)"]),
        Unit("txn", ["DELETE FROM t",
                     "INSERT INTO t SELECT k + 1000, v, n FROM src",
                     "DELETE FROM t WHERE k = 1007"]),
        Unit("auto", ["UPDATE t SET v = 'u' WHERE k = 1003"]),
        Unit("auto", ["DELETE FROM t WHERE k = 1004"]),
        Unit("txn", ["DELETE FROM t"]),
        Unit("auto", ["INSERT INTO t VALUES (7, 'last', 2)"]),
    ]
    database = Database(
        path=str(source), wal_fsync="off", wal_checkpoint_every=0
    )
    oracle = Database()
    for sql in setup:
        database.execute(sql)
        oracle.execute(sql)
    # the snapshot holds t's 24 rows at the RIDs the refills reuse
    assert database.checkpoint() is True
    run_workload(database, units)
    database.wal.flush()
    boundaries = [0] + record_boundaries(wal_path(str(source)))

    oracle_states = [(0, database_state(oracle))]
    for unit in units:
        if unit.kind == "abort":
            continue
        with oracle.transaction():
            for sql in unit.statements:
                oracle.execute(sql)
        oracle_states.append((unit.end_offset, database_state(oracle)))
    assert database_state(database) == oracle_states[-1][1]
    assert len(boundaries) > 100  # one record per row deleted / refilled
    sweep(str(source), boundaries, oracle_states, tmp_path, "refill")
    database.close()


def test_autocommit_delete_and_refill_replays(tmp_path):
    """Outside a transaction the same pair logs under txid 0 and a full
    log replays to the live state — five cycles, still one page."""
    source = tmp_path / "auto"
    database = Database(
        path=str(source), wal_fsync="off", wal_checkpoint_every=0
    )
    database.execute("CREATE TABLE t (k INTEGER PRIMARY KEY, n INTEGER)")
    database.execute("CREATE INDEX t_n ON t (n)")
    database.execute("CREATE TABLE src (k INTEGER, n INTEGER)")
    with database.scope(writes=("src",)):
        database.table("src").insert_many([(k, k % 4) for k in range(40)])
    for cycle in range(5):
        database.execute("DELETE FROM t")
        database.execute(
            "INSERT INTO t SELECT k + ?, n FROM src WHERE k >= ?",
            [100 * cycle, cycle],
        )
    assert database.table("t").page_count == 1
    live = database_state(database)
    database.wal.flush()
    target = tmp_path / "auto_crash"
    crash_copy(str(source), str(target))
    recovered = reopen(str(target))
    assert_states_equal(database_state(recovered), live, context="autocommit")
    assert recovered.execute(
        "SELECT COUNT(*) FROM t WHERE n = 3"
    ).scalar() == 9
    recovered.close()
    database.close()


def test_checkpoint_skipped_while_transaction_active(tmp_path):
    database = Database(path=str(tmp_path / "db"), wal_fsync="off")
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY)")
    with database.transaction():
        database.execute("INSERT INTO t VALUES (1)")
        assert database.checkpoint() is False
    assert database.checkpoint() is True
    database.close()


def test_recovery_counters_surface(recorded_workload, tmp_path):
    source, __units, boundaries, __oracle_states = recorded_workload
    target = tmp_path / "counters"
    crash_copy(source, str(target), cut_offset=boundaries[-1])
    recovered = reopen(str(target))
    try:
        stats = recovered.wal_stats()
        assert stats["replayed"] > 0
        assert stats["checkpoints"] >= 1  # checkpoint-on-open
        assert recovered.wal.replayed == stats["replayed"]
    finally:
        recovered.close()
        shutil.rmtree(target)


# ----------------------------------------------------------------------
# store-level persistence
# ----------------------------------------------------------------------
STORE_QUERIES = [
    "g.V.count()",
    "g.E.count()",
    "g.V.out.count()",
    "g.V.both.dedup().count()",
    "g.V.out.in.dedup().name",
    "g.E.label.dedup()",
    "g.V.hasNot('name').count()",
    "g.V.out.out.dedup().count()",
]


def test_store_persistence_round_trip(tmp_path):
    """Load a graph, mutate it in transactions, crash, reopen: the
    reopened store answers queries identically and differentially agrees
    with the reference interpreter over its exported graph."""
    path = str(tmp_path / "store")
    graph = random_property_graph(seed=41, n_vertices=18, n_edges=40)
    store = SQLGraphStore(path=path, wal_fsync="off")
    store.load_graph(graph)
    store.create_attribute_index("vertex", "name")

    with store.database.transaction():
        vid = store.add_vertex(properties={"name": "zed", "age": 99})
        store.add_edge(1, vid, "knows")
        store.set_vertex_property(2, "age", 28)
    with pytest.raises(RuntimeError):
        with store.database.transaction():
            store.add_vertex(properties={"name": "ghost"})
            raise RuntimeError("abort the ghost")
    store.remove_edge(next(iter(store.edges())).id)

    expected = {q: normalize_sql(store.run(q)) for q in STORE_QUERIES}
    counts = (store.vertex_count(), store.edge_count())
    store.database.wal.flush()  # crash: no close, no checkpoint

    reopened = SQLGraphStore(path=path, wal_fsync="off")
    assert (reopened.vertex_count(), reopened.edge_count()) == counts
    assert reopened.get_vertex(vid).properties["name"] == "zed"
    for query, want in expected.items():
        assert normalize_sql(reopened.run(query)) == want, query

    interpreter = GremlinInterpreter(reopened.export_graph())
    for query in STORE_QUERIES:
        got = normalize_sql(reopened.run(query))
        want = normalize_interpreter(interpreter.run(parse_gremlin(query)))
        assert got == want, query
    # the ghost vertex never committed
    assert all(
        v.properties.get("name") != "ghost" for v in reopened.vertices()
    )
    reopened.close()


def test_store_restores_counters_and_indexes(tmp_path):
    path = str(tmp_path / "store2")
    store = SQLGraphStore(path=path, wal_fsync="off")
    store.load_graph(random_property_graph(seed=12, n_vertices=8, n_edges=12))
    store.create_attribute_index("vertex", "name")
    store.create_attribute_index("edge", "weight", sorted_index=True)
    vid = store.add_vertex()
    store.database.wal.flush()

    reopened = SQLGraphStore(path=path, wal_fsync="off")
    assert reopened._attribute_indexes == [
        ("vertex", "name", False),
        ("edge", "weight", True),
    ]
    # fresh ids never collide with recovered ones
    assert reopened.add_vertex() > vid
    assert reopened.load_report is not None
    assert reopened.table_stats()["load"].vertex_count == 8
    reopened.close()


def test_cli_durable_path_round_trip(tmp_path):
    from repro.cli import build_store, execute_line

    path = str(tmp_path / "cli_db")
    store = build_store("tinker", path=path)
    first_count = store.vertex_count()
    out = execute_line(store, ":stats")
    assert "wal:" in out
    assert "checkpoint written" in execute_line(store, ":checkpoint")
    store.close()

    # second run must recover, not re-load
    reopened = build_store("tinker", path=path)
    assert reopened.vertex_count() == first_count
    assert "wal:" in execute_line(reopened, ":stats")
    reopened.close()


def test_cli_checkpoint_requires_durable_store():
    from repro.cli import build_store, execute_line

    store = build_store("tinker")
    assert "not a durable store" in execute_line(store, ":checkpoint")


def test_reopen_ignores_persisted_analyze_statistics(tmp_path):
    """Optimizer statistics that an ``ANALYZE`` of earlier releases wrote
    to the meta channel are inert: the store reopens, plans from its
    tables alone and answers as before."""
    from repro.datasets.tinker import tinkerpop_classic

    path = str(tmp_path / "store")
    query = "g.V.has('age', T.gt, 28).out('created').name"
    store = SQLGraphStore(path=path, wal_fsync="off")
    store.load_graph(tinkerpop_classic())
    expected = sorted(store.run(query))
    # the shape an earlier release's ANALYZE persisted under this key
    store.database.put_meta("table_stats", {"va": {
        "table_name": "va", "row_count": 6, "page_count": 1,
        "sample_size": 6, "schema_epoch": 13,
        "columns": {"col(vid)": {
            "ndv": 6, "null_frac": 0.0,
            "mcvs": [[1, 0.5], [2, 0.5]], "bounds": [1, 6],
            "sample_size": 6,
        }},
    }})
    store.close()
    reopened = SQLGraphStore(path=path, wal_fsync="off")
    try:
        assert "table_stats" in reopened.database.meta
        assert sorted(reopened.run(query)) == expected
    finally:
        reopened.close()

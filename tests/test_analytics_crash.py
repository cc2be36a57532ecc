"""Durability contract of analytics runs: a run only reads the store.

The drivers copy the live graph into the calling thread's in-memory
scratch database and iterate there, so the invariants are:

* an analytics run appends **zero bytes** to the WAL — the log is
  byte-identical before and after — and leaves the store's catalog and
  schema epoch as they were;
* a crash at any point around a run recovers the base tables exactly
  (differential against :func:`tests.crashkit.database_state`);
* a run inside an open transaction adds nothing to its undo log, so the
  rollback undoes exactly the transaction's own writes;
* table names mean nothing to the engine: a user table named
  ``scratch_*`` is as durable as any other.
"""

import pytest

from repro.core import SQLGraphStore
from repro.datasets.random_graphs import random_property_graph
from repro.relational.database import Database
from tests.crashkit import (
    assert_states_equal,
    crash_copy,
    database_state,
    record_boundaries,
)


def _durable_store(path):
    store = SQLGraphStore(path=str(path))
    if store.schema is None:
        store.load_graph(random_property_graph(seed=21, n_vertices=25,
                                               n_edges=50))
    return store


def _wal_bytes(store):
    wal = store.database.wal
    wal.flush()
    with open(wal.path, "rb") as fh:
        return fh.read()


def _footprint(database):
    return database.catalog.table_names(), database.schema_epoch


def test_analytics_append_zero_wal_bytes(tmp_path):
    store = _durable_store(tmp_path / "db")
    # CRUD traffic so the log is non-trivial before the runs
    vid = store.add_vertex(properties={"name": "extra"})
    store.add_edge(vid, 1, "knows")
    before = _wal_bytes(store)
    footprint = _footprint(store.database)
    store.pagerank(max_iterations=5)
    store.connected_components()
    store.shortest_paths(1)
    assert _wal_bytes(store) == before  # byte-identical, not just same size
    assert _footprint(store.database) == footprint
    store.close()


def test_crash_after_analytics_recovers_base_tables_identically(tmp_path):
    source = tmp_path / "db"
    store = _durable_store(source)
    store.add_vertex(properties={"name": "crud"})
    store.remove_vertex(2)
    names = store.database.catalog.table_names()
    store.connected_components()
    store.label_propagation(max_iterations=4)
    expected = database_state(store.database)
    store.database.wal.flush()
    crashed = crash_copy(str(source), str(tmp_path / "crashed"))
    recovered = SQLGraphStore(path=crashed)
    assert recovered.database.catalog.table_names() == names
    assert_states_equal(
        database_state(recovered.database), expected, "post-analytics crash"
    )
    # the recovered store still runs analytics (schema + WAL intact)
    after = recovered.connected_components()
    assert after == store.connected_components()
    recovered.close()
    store.close()


def test_crash_at_every_boundary_leaves_no_scratch(tmp_path):
    source = tmp_path / "db"
    store = _durable_store(source)
    names = store.database.catalog.table_names()
    for i in range(4):
        vid = store.add_vertex(properties={"n": i})
        store.add_edge(vid, 1, "burst")
        store.pagerank(max_iterations=2)  # interleave runs with CRUD
    store.database.wal.flush()
    boundaries = record_boundaries(store.database.wal.path)
    store.close()
    # cut at a handful of commit boundaries, including the torn middle
    cuts = boundaries[:: max(1, len(boundaries) // 4)] + [
        boundaries[-1] - 3  # mid-record: torn tail dropped
    ]
    for i, cut in enumerate(cuts):
        crashed = crash_copy(str(source), str(tmp_path / f"cut{i}"),
                             cut_offset=cut)
        recovered = Database(path=crashed)
        assert recovered.catalog.table_names() == names
        recovered.close()


def _scratch_named_user_table(store):
    database = store.database
    database.execute(
        "CREATE TABLE scratch_orders (k INTEGER PRIMARY KEY, note STRING)"
    )
    database.execute("INSERT INTO scratch_orders VALUES (1, 'a')")
    database.execute("INSERT INTO scratch_orders VALUES (2, 'b')")
    assert database.execute(
        "SELECT COUNT(*) FROM scratch_orders"
    ).scalar() == 2
    return database_state(database)


def test_scratch_named_user_table_survives_crash_replay(tmp_path):
    source = tmp_path / "db"
    store = _durable_store(source)
    expected = _scratch_named_user_table(store)
    store.database.wal.flush()
    crashed = crash_copy(str(source), str(tmp_path / "crashed"))
    recovered = SQLGraphStore(path=crashed)
    assert_states_equal(
        database_state(recovered.database), expected, "replayed user table"
    )
    assert recovered.database.execute(
        "SELECT note FROM scratch_orders WHERE k = 2"
    ).rows == [("b",)]
    recovered.close()
    store.close()


def test_scratch_named_user_table_survives_checkpoint_and_reopen(tmp_path):
    source = tmp_path / "db"
    store = _durable_store(source)
    expected = _scratch_named_user_table(store)
    assert store.database.checkpoint()
    store.close()
    recovered = SQLGraphStore(path=str(source))
    assert_states_equal(
        database_state(recovered.database), expected, "checkpointed user table"
    )
    assert recovered.database.execute(
        "SELECT COUNT(*) FROM scratch_orders"
    ).scalar() == 2
    recovered.close()


def test_rollback_after_analytics_undoes_the_transaction(tmp_path):
    source = tmp_path / "db"
    store = _durable_store(source)
    expected = database_state(store.database)
    transaction = store.database.begin()
    store.add_vertex(1000, properties={"name": "uncommitted"})
    components = store.connected_components()
    assert components[1000] == 1000  # the run sees its own transaction
    transaction.rollback()
    assert store.get_vertex(1000) is None
    assert 1000 not in store.connected_components()
    assert_states_equal(
        database_state(store.database), expected, "rolled back"
    )
    store.database.wal.flush()
    crashed = crash_copy(str(source), str(tmp_path / "crashed"))
    recovered = SQLGraphStore(path=crashed)
    assert recovered.get_vertex(1000) is None
    assert_states_equal(
        database_state(recovered.database), expected, "recovered rollback"
    )
    recovered.close()
    store.close()


def test_failed_run_leaves_durable_store_clean(tmp_path):
    store = _durable_store(tmp_path / "db")
    before = _wal_bytes(store)
    footprint = _footprint(store.database)
    with pytest.raises(Exception):
        store.shortest_paths(10**9)  # unknown source aborts mid-setup
    assert _footprint(store.database) == footprint
    assert _wal_bytes(store) == before
    # the store still logs its own writes
    store.add_vertex(properties={"name": "after"})
    assert len(_wal_bytes(store)) > len(before)
    store.close()

"""Statistics lifecycle: ANALYZE, estimates, drift, invalidation,
durability.

Covers the optimizer-statistics subsystem end to end:

* ``ColumnStats`` distribution math (MCVs, equi-depth histograms, NDV
  scaling) in isolation;
* ``ANALYZE`` changing planner estimates (EXPLAIN ``est_rows``) on a
  skewed table;
* incremental maintenance: selectivities are fractions applied to the
  *live* row count, so estimates track post-ANALYZE inserts/deletes
  within drift bounds;
* schema-epoch invalidation (any DDL drops back to the fallback
  constants until the next ANALYZE);
* survival across checkpoint and crash recovery (via ``crashkit``);
* the ``planner_options`` validating accessor.
"""

import re

import pytest

from tests import crashkit
from repro.cli import execute_line
from repro.core import SQLGraphStore
from repro.datasets.tinker import tinkerpop_classic
from repro.obs.context import current
from repro.relational import Database
from repro.relational.errors import BindError, SqlSyntaxError
from repro.relational.sql.parser import parse_statement
from repro.relational.stats import (
    ColumnStats,
    META_STATS_KEY,
    StatisticsRegistry,
    TableStats,
)


def first_est(database, sql):
    """est_rows of the first plan line of ``EXPLAIN sql``."""
    text = database.execute("EXPLAIN " + sql).rows[0][0]
    return int(re.search(r"est_rows=(\d+)", text).group(1))


def scan_est(database, sql, pattern):
    """est_rows of the first EXPLAIN line matching *pattern*."""
    for (line,) in database.execute("EXPLAIN " + sql).rows:
        if pattern in line:
            return int(re.search(r"est_rows=(\d+)", line).group(1))
    raise AssertionError(f"no plan line matching {pattern!r}")


@pytest.fixture
def skewed_db():
    """1000 rows: lbl is 'common' x950 / 'rare' x50, v uniform 0..999."""
    database = Database()
    database.execute(
        "CREATE TABLE ev (id INTEGER PRIMARY KEY, lbl STRING, v INTEGER)"
    )
    database.execute("CREATE INDEX ev_lbl ON ev (lbl)")
    database.execute("CREATE INDEX ev_v ON ev (v) USING sorted")
    table = database.table("ev")
    with database.scope(writes=("ev",)):
        for i in range(1000):
            lbl = "rare" if i % 20 == 0 else "common"
            table.insert((i, lbl, i))
    return database


# ----------------------------------------------------------------------
# ColumnStats distribution math
# ----------------------------------------------------------------------
def test_mcv_equality_selectivity_reflects_skew():
    values = ["a"] * 90 + ["b"] * 9 + ["c"]
    column = ColumnStats.build(values, len(values))
    assert column.eq_selectivity("a") == pytest.approx(0.9)
    assert column.eq_selectivity("b") == pytest.approx(0.09)
    # 'c' appears once in a fully-observed sample: small residual share
    assert column.eq_selectivity("c") <= 0.09
    # never-seen values get the non-MCV residual, not a uniform 1/ndv
    assert column.eq_selectivity("zzz") < 0.05


def test_histogram_range_selectivity():
    column = ColumnStats.build(list(range(1000)), 1000)
    assert column.range_selectivity(None, 100) == pytest.approx(0.1, abs=0.05)
    assert column.range_selectivity(500, None) == pytest.approx(0.5, abs=0.05)
    assert column.range_selectivity(200, 400) == pytest.approx(0.2, abs=0.05)
    assert column.range_selectivity(None, None) == pytest.approx(1.0)


def test_null_fraction_and_not_null():
    column = ColumnStats.build([1, None, 3, None], 4)
    assert column.null_frac == pytest.approx(0.5)
    assert column.not_null_selectivity() == pytest.approx(0.5)
    assert column.eq_selectivity(None) == 0.0


def test_ndv_scales_up_for_partial_samples():
    # every sampled value distinct -> the full table is probably all
    # distinct too: NDV scales to the row count, not the sample size
    column = ColumnStats.build(list(range(100)), 10_000)
    assert column.ndv == 10_000
    # a small repeating value set stays small even under sampling
    column = ColumnStats.build([1, 2, 3] * 40, 10_000)
    assert column.ndv == 3


def test_like_prefix_selectivity_uses_histogram():
    values = [f"user{i:04d}" for i in range(500)] + ["admin"] * 500
    column = ColumnStats.build(values, 1000)
    assert column.like_prefix_selectivity("admin") == pytest.approx(
        0.5, abs=0.1
    )
    assert column.like_prefix_selectivity("user") == pytest.approx(
        0.5, abs=0.1
    )
    assert column.like_prefix_selectivity("zzz") == pytest.approx(0.0, abs=0.05)


def test_column_stats_roundtrip():
    column = ColumnStats.build(["x"] * 5 + ["y"] * 3 + [None] * 2, 10)
    clone = ColumnStats.from_dict(column.to_dict())
    assert clone.ndv == column.ndv
    assert clone.null_frac == column.null_frac
    assert clone.eq_selectivity("x") == column.eq_selectivity("x")


# ----------------------------------------------------------------------
# ANALYZE changes planner estimates
# ----------------------------------------------------------------------
def test_analyze_improves_equality_estimate(skewed_db):
    rare = "SELECT * FROM ev WHERE lbl = 'rare'"
    common = "SELECT * FROM ev WHERE lbl = 'common'"
    # pre-ANALYZE: index NDV (2 distinct labels) -> both estimated 500
    assert first_est(skewed_db, rare) == 500
    assert first_est(skewed_db, common) == 500
    result = skewed_db.execute("ANALYZE ev")
    assert result.rows == [("ev", 1000, 1000)]
    # post-ANALYZE: MCV frequencies separate the labels
    assert first_est(skewed_db, rare) == 50
    assert first_est(skewed_db, common) == 950


def test_analyze_improves_range_estimate(skewed_db):
    sql = "SELECT * FROM ev WHERE v < 100"
    # pre-ANALYZE: the 0.3 constant
    assert first_est(skewed_db, sql) == 300
    skewed_db.execute("ANALYZE")
    est = first_est(skewed_db, sql)
    assert 50 <= est <= 150  # histogram: ~10%


def test_analyze_changes_join_driver_on_tied_estimates(skewed_db):
    """Without statistics both label filters estimate rows/ndv — a tie —
    and the join keeps its syntactic order, driving the index nested loop
    from the 950-row side; the MCV frequencies break the tie and drive
    from the 50-row side."""
    sql = (
        "SELECT COUNT(*) FROM ev e1, ev e2 "
        "WHERE e1.lbl = 'common' AND e2.lbl = 'rare' AND e1.v = e2.id"
    )

    def plan():
        return "\n".join(
            row[0] for row in skewed_db.execute("EXPLAIN " + sql).rows
        )

    before = skewed_db.execute(sql).rows
    assert "IndexNLJoin[inner](ev as e2 via ev_pk)" in plan()
    skewed_db.execute("ANALYZE ev")
    assert "IndexNLJoin[inner](ev as e1 via ev_v)" in plan()
    assert skewed_db.execute(sql).rows == before


def test_analyze_bare_covers_all_tables(skewed_db):
    skewed_db.execute(
        "CREATE TABLE other (a INTEGER PRIMARY KEY, b STRING)"
    )
    result = skewed_db.execute("ANALYZE")
    assert [row[0] for row in result.rows] == ["ev", "other"]
    assert skewed_db.statistics.analyzed_tables() == ["ev", "other"]


def test_analyze_unknown_table_raises(skewed_db):
    with pytest.raises(BindError):
        skewed_db.execute("ANALYZE nope")


def test_analyze_statement_parses():
    statement = parse_statement("ANALYZE ev")
    assert statement.table == "ev"
    assert parse_statement("ANALYZE").table is None
    assert parse_statement("ANALYZE;").table is None
    with pytest.raises(SqlSyntaxError):
        parse_statement("ANALYZE ev extra")


# ----------------------------------------------------------------------
# incremental maintenance
# ----------------------------------------------------------------------
def test_estimates_track_live_rows_after_analyze(skewed_db):
    skewed_db.execute("ANALYZE ev")
    table = skewed_db.table("ev")
    # double the table with the same 5% skew: selectivities are
    # fractions of live_rows, so estimates follow without re-ANALYZE
    with skewed_db.scope(writes=("ev",)):
        for i in range(1000, 2000):
            table.insert((i, "rare" if i % 20 == 0 else "common", i))
    est = first_est(skewed_db, "SELECT * FROM ev WHERE lbl = 'rare'")
    actual = len(skewed_db.execute(
        "SELECT * FROM ev WHERE lbl = 'rare'"
    ).rows)
    assert actual == 100
    assert est == pytest.approx(actual, rel=0.2)


# ----------------------------------------------------------------------
# schema-epoch invalidation
# ----------------------------------------------------------------------
def test_ddl_invalidates_statistics(skewed_db):
    skewed_db.execute("ANALYZE ev")
    assert first_est(skewed_db, "SELECT * FROM ev WHERE lbl = 'rare'") == 50
    skewed_db.execute("CREATE TABLE t2 (x INTEGER PRIMARY KEY)")
    # stats survive in the registry but fail the epoch check -> planner
    # falls back to heuristics until the next ANALYZE
    assert skewed_db.statistics.get(
        "ev", skewed_db.schema_epoch
    ) is None
    assert first_est(skewed_db, "SELECT * FROM ev WHERE lbl = 'rare'") == 500
    skewed_db.execute("ANALYZE ev")
    assert first_est(skewed_db, "SELECT * FROM ev WHERE lbl = 'rare'") == 50


def test_drop_table_forgets_statistics(skewed_db):
    skewed_db.execute("ANALYZE ev")
    skewed_db.execute("DROP TABLE ev")
    assert skewed_db.statistics.get("ev") is None


# ----------------------------------------------------------------------
# durability: checkpoint + crash recovery
# ----------------------------------------------------------------------
def _durable_with_stats(path):
    database = Database(path=str(path))
    crashkit.run_workload(
        database, crashkit.generate_workload(seed=11, size=40)
    )
    database.execute("ANALYZE")
    return database


def test_stats_survive_clean_checkpoint(tmp_path):
    first = _durable_with_stats(tmp_path / "db")
    before = first.statistics.get("kv")
    assert before is not None
    first.close()
    reopened = Database(path=str(tmp_path / "db"))
    try:
        after = reopened.statistics.get("kv", reopened.schema_epoch)
        assert after is not None
        assert after.row_count == before.row_count
        assert sorted(after.columns) == sorted(before.columns)
    finally:
        reopened.close()


def test_stats_survive_crash_recovery(tmp_path):
    source = tmp_path / "db"
    database = _durable_with_stats(source)
    database.wal.flush()
    # crash without close/checkpoint: stats must replay from the WAL
    # meta record alone
    crashed = crashkit.crash_copy(str(source), str(tmp_path / "crashed"))
    database.close()
    recovered = Database(path=str(tmp_path / "crashed"))
    try:
        entry = recovered.statistics.get("kv", recovered.schema_epoch)
        assert entry is not None
        assert entry.row_count == recovered.table("kv").live_rows
        # estimates engage immediately after recovery
        est = first_est(recovered, "SELECT * FROM kv WHERE n = 3")
        column = entry.column("col(n)")
        expected = max(1, int(
            entry.row_count * column.eq_selectivity(3)
        ))
        assert est == expected
    finally:
        recovered.close()


def test_stats_dropped_when_cut_before_meta_record(tmp_path):
    source = tmp_path / "db"
    database = Database(path=str(source))
    units = crashkit.generate_workload(seed=3, size=30)
    crashkit.run_workload(database, units)
    cut = units[-1].end_offset  # before ANALYZE's meta record
    database.execute("ANALYZE")
    database.wal.flush()
    crashed = crashkit.crash_copy(
        str(source), str(tmp_path / "crashed"), cut_offset=cut
    )
    database.close()
    recovered = Database(path=str(crashed))
    try:
        assert recovered.statistics.get("kv") is None
    finally:
        recovered.close()


def test_load_meta_drops_stale_tables_and_columns():
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b STRING)")
    database.execute("ANALYZE t")
    payload = database.statistics.to_meta()
    payload["ghost"] = dict(payload["t"], table_name="ghost")
    payload["t"]["columns"]["col(gone)"] = (
        payload["t"]["columns"]["col(a)"]
    )
    registry = StatisticsRegistry()
    loaded = registry.load_meta(database, payload)
    assert loaded == ["t"]
    entry = registry.get("t", database.schema_epoch)
    assert entry is not None
    assert "col(gone)" not in entry.columns


def test_load_meta_accepts_persisted_watermarks():
    """Statistics written before the mutation watermarks were dropped
    still load."""
    database = Database()
    database.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b STRING)")
    database.execute("INSERT INTO t VALUES (1, 'x'), (2, 'y')")
    database.execute("ANALYZE t")
    payload = database.statistics.to_meta()
    payload["t"].update(insert_watermark=2, delete_watermark=0)
    registry = StatisticsRegistry()
    assert registry.load_meta(database, payload) == ["t"]
    assert registry.get("t", database.schema_epoch).row_count == 2


# ----------------------------------------------------------------------
# planner_options accessor + validation
# ----------------------------------------------------------------------
def test_planner_options_default_empty():
    assert Database().planner_options == {}


def test_planner_option_accessor():
    database = Database(planner_options={"index_probe_cost": 50})
    assert database.planner_option("index_probe_cost", 1.0) == 50.0
    assert Database().planner_option("index_probe_cost", 1.0) == 1.0


def test_planner_options_reject_unknown_key():
    with pytest.raises(ValueError, match="unknown planner option"):
        Database(planner_options={"index_prob_cost": 1.0})
    with pytest.raises(ValueError, match="unknown planner option"):
        Database().planner_option("index_prob_cost")


@pytest.mark.parametrize("bad", ["10", True, None, -1.0, 0])
def test_planner_options_reject_bad_values(bad):
    with pytest.raises(ValueError):
        Database(planner_options={"index_probe_cost": bad})


# ----------------------------------------------------------------------
# est-vs-actual feedback: EXPLAIN ANALYZE q_err
# ----------------------------------------------------------------------
def test_explain_analyze_reports_q_error(skewed_db):
    skewed_db.execute("ANALYZE ev")
    text = "\n".join(
        row[0] for row in skewed_db.execute(
            "EXPLAIN ANALYZE SELECT * FROM ev WHERE lbl = 'rare'"
        ).rows
    )
    first = text.splitlines()[0]
    assert "est_rows=50" in first
    assert "actual_rows=50" in first
    assert "q_err=1.00" in first
    assert re.search(r"Estimates: median q_err \d+\.\d\d over \d+", text)
    stats = current().statement
    assert stats.median_q_error() == pytest.approx(1.0)
    assert stats.as_dict()["median_q_error"] == pytest.approx(1.0)


def test_q_error_definition():
    from repro.obs.stats import q_error

    assert q_error(10, 10) == 1.0
    assert q_error(100, 10) == 10.0
    assert q_error(10, 100) == 10.0
    assert q_error(0, 0) == 1.0  # floored at 1 on both sides


# ----------------------------------------------------------------------
# expression-index statistics (JSON_VAL attribute predicates)
# ----------------------------------------------------------------------
def test_attribute_index_fingerprints_get_statistics():
    store = SQLGraphStore()
    store.load_graph(tinkerpop_classic())
    store.create_attribute_index("vertex", "lang")
    store.database.execute("ANALYZE va")
    entry = store.database.statistics.get("va")
    fingerprints = set(entry.columns)
    assert any("lang" in fp for fp in fingerprints), fingerprints
    # the composite-free plain columns are covered too
    assert "col(vid)" in fingerprints


def test_store_analyze_tables_and_snapshot():
    store = SQLGraphStore()
    store.load_graph(tinkerpop_classic())
    analyzed = store.analyze_tables()
    assert {name for name, __, __s in analyzed} >= {"va", "ea"}
    snapshot = store.table_stats()["statistics"]
    assert snapshot["va"]["row_count"] == 6
    # CLI surfaces
    out = execute_line(store, ":analyze-tables va")
    assert "va" in out and "sampled" in out
    out = execute_line(store, ":stats")
    assert "optimizer statistics" in out


# ----------------------------------------------------------------------
# table-level collection internals
# ----------------------------------------------------------------------
def test_table_stats_collect_samples_and_watermarks(skewed_db):
    table = skewed_db.table("ev")
    entry = TableStats.collect(table, schema_epoch=7)
    assert entry.row_count == 1000
    assert entry.sample_size == 1000
    assert entry.schema_epoch == 7
    assert entry.page_count == table.page_count
    # statistics persisted by older releases carry mutation watermarks
    roundtrip = TableStats.from_dict(dict(
        entry.to_dict(), insert_watermark=1000, delete_watermark=0,
    ))
    assert roundtrip.columns["col(lbl)"].eq_selectivity(
        "rare"
    ) == entry.columns["col(lbl)"].eq_selectivity("rare")


def test_registry_snapshot_and_meta_key(skewed_db):
    skewed_db.execute("ANALYZE ev")
    snapshot = skewed_db.statistics.snapshot()
    assert snapshot["ev"]["row_count"] == 1000
    # ANALYZE publishes the serialized registry under the meta key (the
    # WAL persists it when the database is durable)
    assert "ev" in skewed_db.get_meta(META_STATS_KEY)

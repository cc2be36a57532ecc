"""Tests for EXPLAIN and planner regime options."""

import threading
import time

import pytest

from repro.relational import Database
from repro.relational.errors import BindError


def make_db(planner_options=None):
    database = Database(planner_options=planner_options)
    database.execute("CREATE TABLE t (id INTEGER PRIMARY KEY, v INTEGER)")
    database.execute("CREATE TABLE u (id INTEGER, t_id INTEGER)")
    database.execute("CREATE INDEX u_tid ON u (t_id)")
    for i in range(300):
        database.execute("INSERT INTO t VALUES (?, ?)", [i, i % 5])
        database.execute("INSERT INTO u VALUES (?, ?)", [i, (i * 7) % 300])
    return database


class TestExplain:
    def test_explain_returns_plan_rows(self):
        database = make_db()
        result = database.execute("EXPLAIN SELECT v FROM t WHERE id = 5")
        assert result.columns == ["plan"]
        text = "\n".join(row[0] for row in result.rows)
        assert "IndexEqScan(t" in text
        assert "ProjectOp" in text

    def test_explain_shows_join_strategy(self):
        database = make_db()
        text = "\n".join(
            row[0]
            for row in database.execute(
                "EXPLAIN SELECT t.v FROM t, u WHERE t.id = u.t_id"
            ).rows
        )
        assert "IndexNLJoin" in text or "HashJoin" in text

    def test_explain_shows_estimates(self):
        database = make_db()
        text = "\n".join(
            row[0]
            for row in database.execute("EXPLAIN SELECT * FROM t").rows
        )
        assert "est_rows=300" in text

    def test_explain_does_not_execute(self):
        database = make_db()
        database.execute("EXPLAIN SELECT COUNT(*) FROM t")
        # table contents untouched
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 300

    def test_explain_dml_rejected(self):
        database = make_db()
        with pytest.raises(BindError):
            database.execute("EXPLAIN DELETE FROM t")

    def test_explain_with_cte(self):
        database = make_db()
        result = database.execute(
            "EXPLAIN WITH x AS (SELECT id FROM t) SELECT COUNT(*) FROM x"
        )
        text = "\n".join(row[0] for row in result.rows)
        assert "MaterializedScan" in text


class TestExplainAnalyze:
    def _plan_text(self, database, sql):
        result = database.execute("EXPLAIN ANALYZE " + sql)
        assert result.columns == ["plan"]
        return "\n".join(row[0] for row in result.rows)

    def test_actual_rows_match_real_results(self):
        database = make_db()
        sql = "SELECT v FROM t WHERE v = 3"
        expected = len(database.execute(sql).rows)
        assert expected == 60  # 300 rows, v = i % 5
        text = self._plan_text(database, sql)
        assert f"Execution: {expected} rows" in text
        # the root operator produced exactly the result rows
        first_line = text.splitlines()[0]
        assert f"actual_rows={expected}" in first_line
        assert "time=" in first_line

    def test_annotates_every_operator(self):
        database = make_db()
        text = self._plan_text(
            database, "SELECT t.v FROM t, u WHERE t.id = u.t_id"
        )
        for line in text.splitlines():
            if "est_rows=" in line:
                assert "actual_rows=" in line or "never executed" in line

    def test_zero_row_query(self):
        database = make_db()
        text = self._plan_text(database, "SELECT v FROM t WHERE id = -1")
        assert "Execution: 0 rows" in text
        assert "actual_rows=0" in text.splitlines()[0]

    def test_summary_counters_present(self):
        database = make_db()
        text = self._plan_text(database, "SELECT COUNT(*) FROM t")
        assert "Buffer pool:" in text
        assert "Indexes:" in text
        assert "Locks:" in text

    def test_reports_index_probes(self):
        database = make_db()
        text = self._plan_text(database, "SELECT v FROM t WHERE id = 5")
        probes = [
            line for line in text.splitlines() if line.startswith("Indexes:")
        ]
        assert len(probes) == 1
        count = int(probes[0].split()[1])
        assert count >= 1

    def test_cte_sections_rendered(self):
        database = make_db()
        text = self._plan_text(
            database,
            "WITH x AS (SELECT id FROM t) SELECT COUNT(*) FROM x",
        )
        assert "CTE x:" in text
        # the CTE's own operators carry actuals too
        cte_start = text.index("CTE x:")
        cte_body = text[cte_start:].splitlines()[1]
        assert "actual_rows=300" in cte_body

    def test_analyze_executes(self):
        database = make_db()
        database.execute("EXPLAIN ANALYZE SELECT COUNT(*) FROM t")
        assert database.execute("SELECT COUNT(*) FROM t").scalar() == 300

    def test_analyze_dml_rejected_with_message(self):
        database = make_db()
        with pytest.raises(BindError, match="SELECT statements only"):
            database.execute("EXPLAIN ANALYZE DELETE FROM t")

    def test_locks_line_reports_own_wait(self):
        """The statement's locks are taken before it runs, so its wait
        must be read from this thread's last acquire, not a counter
        snapshotted afterwards."""
        database = make_db()
        locked = threading.Event()

        def holder():
            with database.transaction():
                database.execute("INSERT INTO t VALUES (?, ?)", [1000, 0])
                locked.set()
                time.sleep(0.2)

        thread = threading.Thread(target=holder)
        thread.start()
        try:
            assert locked.wait(timeout=5)
            text = self._plan_text(database, "SELECT v FROM t")
        finally:
            thread.join(timeout=10)
        line = next(
            line for line in text.splitlines() if line.startswith("Locks:")
        )
        waited_ms = float(line.split()[1].removesuffix("ms"))
        assert waited_ms >= 150


class TestPlannerOptions:
    def test_high_probe_cost_prefers_hash_join(self):
        cheap_probe = make_db()
        costly_probe = make_db(planner_options={"index_probe_cost": 1000.0})
        sql = "SELECT COUNT(*) FROM t, u WHERE t.id = u.t_id"
        cheap_plan = "\n".join(
            row[0] for row in cheap_probe.execute("EXPLAIN " + sql).rows
        )
        costly_plan = "\n".join(
            row[0] for row in costly_probe.execute("EXPLAIN " + sql).rows
        )
        assert "IndexNLJoin" in cheap_plan
        assert "HashJoin" in costly_plan
        # both regimes agree on the answer
        assert cheap_probe.execute(sql).scalar() == costly_probe.execute(
            sql
        ).scalar()

    def test_options_default_empty(self):
        assert Database().planner_options == {}

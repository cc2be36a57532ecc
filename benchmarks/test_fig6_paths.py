"""Experiment E5 — paper Figure 6: path queries, OPA+OSA vs EA self-joins.

Runs the 11 long-path queries (lq1-lq11) twice: through the normal
translation (hash adjacency tables) and through an EA-only rewrite where
every hop is a join against the redundant edge table.

Paper shape: the shredded adjacency tables win on long paths (mean 8.8s vs
17.8s) because the hash-table rows are far more compact than the vertical
EA representation, so the join cardinalities are smaller.
"""

import re

import pytest

from benchmarks.conftest import RUNS, record
from repro.bench.reporting import format_table, milliseconds
from repro.bench.runner import warm_cache_time
from repro.core import SQLGraphStore
from repro.core.translator import GremlinTranslator, _Translation
from repro.datasets import dbpedia
from repro.obs import context as obs_context


class _EAOnlyTranslator(GremlinTranslator):
    """A translator whose adjacency chooser always takes the EA template,
    so every hop is a join against the redundant edge table (paper: "we
    therefore ran our long path queries using joins on the EA table
    alone")."""

    def translate(self, query):
        translation = _Translation(self.schema, list(query.pipes))
        translation._adjacent_direction = translation._adjacent_via_ea
        sql = translation.build()
        obs_context.current().trace = translation.trace
        return sql


class _EAOnlyStore(SQLGraphStore):
    """SQLGraph variant whose translator never uses the hash tables; every
    query path (``run``, ``query``, ``translate``) goes through it."""

    def load_graph(self, graph, sample_limit=None):
        report = super().load_graph(graph, sample_limit)
        self.translator = _EAOnlyTranslator(self.schema)
        return report


# the paper runs in the scan-bound, disk-resident regime (16k-row frontiers
# joined against hundreds of millions of EA rows, where DB2 uses scan-based
# hash joins and pages stream through the buffer pool).  A high index-probe
# cost plus a small buffer pool pins both stores to that regime, so table
# compactness — the paper's stated mechanism (EA rows are wide, OPA rows
# pack a whole adjacency list) — governs the join costs.
_DISK_REGIME = {"index_probe_cost": 50.0}
_POOL_PAGES = 12


@pytest.fixture(scope="module")
def stores(dbpedia_data):
    hash_store = SQLGraphStore(
        buffer_pool_pages=_POOL_PAGES, planner_options=_DISK_REGIME
    )
    hash_store.load_graph(dbpedia_data.graph)
    hash_store.create_attribute_index("vertex", "tag")
    ea_store = _EAOnlyStore(
        buffer_pool_pages=_POOL_PAGES, planner_options=_DISK_REGIME
    )
    ea_store.load_graph(dbpedia_data.graph)
    ea_store.create_attribute_index("vertex", "tag")
    return hash_store, ea_store


def test_fig6_path_queries(benchmark, stores, dbpedia_data):
    hash_store, ea_store = stores
    rows = []
    hash_times = []
    ea_times = []
    for query_id, text in dbpedia.path_queries(dbpedia_data):
        assert hash_store.run(text) == ea_store.run(text), query_id
        hash_mean, __ = warm_cache_time(
            lambda q=text: hash_store.run(q), runs=RUNS
        )
        ea_mean, __ = warm_cache_time(
            lambda q=text: ea_store.run(q), runs=RUNS
        )
        hash_times.append(hash_mean)
        ea_times.append(ea_mean)
        rows.append([
            query_id, milliseconds(hash_mean), milliseconds(ea_mean),
            ea_mean / hash_mean if hash_mean else float("nan"),
        ])
    mean_hash = sum(hash_times) / len(hash_times)
    mean_ea = sum(ea_times) / len(ea_times)
    rows.append(["mean", milliseconds(mean_hash), milliseconds(mean_ea),
                 mean_ea / mean_hash])
    record(
        "fig6_paths",
        format_table(
            ["query", "OPA+OSA ms", "EA ms", "EA/OPA"],
            rows,
            title="Figure 6 — long-path queries: hash adjacency vs "
                  "EA-only joins",
        ),
    )
    # paper shape: OPA+OSA beats EA-only on average for long paths
    assert mean_hash < mean_ea

    query = dbpedia.path_queries(dbpedia_data)[1][1]
    benchmark(lambda: hash_store.run(query))


def test_fig6_ea_arm_reads_only_ea(stores, dbpedia_data):
    """The EA-only arm's executed statements never name a hash table."""
    __, ea_store = stores
    names = ea_store.schema.table_names
    hash_tables = re.compile(r"\b(%s)\b" % "|".join(
        names[key] for key in ("opa", "ipa", "osa", "isa")))
    for query_id, text in dbpedia.path_queries(dbpedia_data):
        ea_store.run(text)
        sql = ea_store.last_query_stats.sql
        assert hash_tables.search(sql) is None, (query_id, sql)

"""Shared benchmark fixtures.

Scale and cost-model parameters live here; every value is documented in
EXPERIMENTS.md.  Absolute numbers are not expected to match the paper (the
substrate is a Python engine, not DB2 on a 24GB server) — the benchmarks
regenerate the *shape* of each table/figure.

Environment knobs:

* ``REPRO_BENCH_RUNS``  — warm-cache repetitions (default 5; paper used 10)
* ``REPRO_BENCH_SCALE`` — multiplier for dataset sizes (default 1.0)

Engine counters (buffer pool, indexes, caches, WAL) are always on and
live on the objects that count; a benchmark that wants them reads them
there (see docs/OBSERVABILITY.md).
"""

import os
import pathlib

import pytest

from repro.baselines import ClientServerLink, KVGraphStore, NativeGraphStore
from repro.core import SQLGraphStore
from repro.datasets import dbpedia

RUNS = int(os.environ.get("REPRO_BENCH_RUNS", "5"))
SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))

# client/server cost model (see EXPERIMENTS.md "Simulation parameters"):
# pipe-at-a-time stores pay one primitive-protocol round trip per Blueprints
# call; SQLGraph pays one request round trip per query.
PRIMITIVE_RTT = 15e-6  # per-primitive server dispatch + marshalling cost
REQUEST_RTT = 1.5e-3  # one HTTP request/response, localhost

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def scaled(value):
    return max(1, int(value * SCALE))


def record(name, text):
    """Print a paper-style table and persist it under benchmarks/results."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print("\n" + text)


@pytest.fixture(scope="session")
def dbpedia_data():
    config = dbpedia.DBpediaConfig(
        places=scaled(2500),
        players=scaled(1500),
        teams=scaled(80),
        persons=scaled(400),
        artists=scaled(300),
        seed=7,
    )
    return dbpedia.generate(config)


def _indexed_keys():
    # the paper adds indexes for queried keys (§3.3); uri/tag drive starts
    keys = {"uri": False, "tag": False}
    for __, key, kind, __arg in dbpedia.ATTRIBUTE_QUERIES:
        keys[key] = True  # sorted: exists/range/like predicates
    return keys


@pytest.fixture(scope="session")
def sqlgraph_store(dbpedia_data):
    store = SQLGraphStore(client=ClientServerLink(REQUEST_RTT, sleep=True))
    store.load_graph(dbpedia_data.graph)
    for key, sorted_index in _indexed_keys().items():
        store.create_attribute_index("vertex", key, sorted_index=sorted_index)
    return store


@pytest.fixture(scope="session")
def native_store(dbpedia_data):
    store = NativeGraphStore(ClientServerLink(PRIMITIVE_RTT, sleep=True))
    store.load_graph(dbpedia_data.graph)
    for key in _indexed_keys():
        store.create_attribute_index(key)
    return store


@pytest.fixture(scope="session")
def kv_store(dbpedia_data):
    store = KVGraphStore(ClientServerLink(PRIMITIVE_RTT, sleep=True))
    store.load_graph(dbpedia_data.graph)
    for key in _indexed_keys():
        store.create_attribute_index(key)
    return store

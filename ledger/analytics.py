"""``analytics_embedded``: the four bulk algorithms as iterated SQL.

This is the set-oriented path of the same executor the request workloads
use one row at a time: full-table joins and aggregates over scratch
tables, some 50 to 80 statements per run.  Per-request overheads are
negligible here, so a columnar kernel must move this workload and a
point-query fast path must not.

One op is one run of one algorithm; a *pass* is the four of them —
PageRank (5 fixed iterations, ``tolerance=0``), connected components,
label propagation (5 iterations) and SSSP from the vertex of highest
out-degree — in an order the seed picks.  The four run times differ by
7x, so the end-to-end statistics are taken per pass (one group = one
pass, like one cycle of the Fig-8 mix): within a pass the p50 sits
between the two middle algorithms and the p90 near the slowest, always
the same ones, instead of flipping between algorithms as a pooled median
would.  The per-algorithm times are per-layer metrics.
"""

from __future__ import annotations

import random
from repro.core import SQLGraphStore
from repro.datasets.random_graphs import analytics_scale_graph

from ledger import oracles
from ledger.harness import (
    graph_fingerprint,
    hit_ratio,
    median,
    peak_rss_mb,
    ratio,
    timed_load,
)
from ledger.measure import (
    Samples,
    Workload,
    report_failures,
    run_clients,
    run_ops,
    whole_cycles,
)

VERTICES = 1000
EDGES = 5000
GRAPH_SEED = 13
ITERATIONS = 5
PAGERANK_TOLERANCE = 1e-9
ALGORITHMS = ("pagerank", "components", "labelprop", "sssp")
TRACE_PASSES = 2


class Run:
    """One run of one algorithm as an op of the closed loop."""

    __slots__ = ("name",)
    is_read = True

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Run({self.name})"


def run_algorithm(store, algorithm, source):
    if algorithm == "pagerank":
        return store.pagerank(tolerance=0, max_iterations=ITERATIONS)
    if algorithm == "components":
        return store.connected_components()
    if algorithm == "labelprop":
        return store.label_propagation(max_iterations=ITERATIONS)
    if algorithm == "sssp":
        return store.shortest_paths(source)
    raise ValueError(f"unknown algorithm {algorithm!r}")


class AnalyticsEmbedded(Workload):
    name = "analytics_embedded"
    group_size = len(ALGORITHMS)  # one group per pass

    def __init__(self, ctx):
        super().__init__(ctx)
        self.graph = analytics_scale_graph(VERTICES, EDGES, seed=GRAPH_SEED)
        out_degree = {}
        for edge in self.graph.edges():
            source = edge.out_vertex.id
            out_degree[source] = out_degree.get(source, 0) + 1
        self.source = min(out_degree, key=lambda vid: (-out_degree[vid], vid))
        self.expected = {
            "pagerank": oracles.pagerank(self.graph, ITERATIONS),
            "components": oracles.components(self.graph),
            "labelprop": oracles.label_propagation(self.graph, ITERATIONS),
            "sssp": oracles.shortest_paths(self.graph, self.source),
        }
        self.first = {}  # algorithm -> first result: repeats must be identical
        self.order = list(ALGORITHMS)
        random.Random(ctx.seed).shuffle(self.order)

    def config(self):
        return {
            "dataset": f"analytics_scale_graph({VERTICES}, {EDGES}, "
                       f"seed={GRAPH_SEED})",
            "vertices": self.graph.vertex_count(),
            "edges": self.graph.edge_count(),
            "dataset_sha256": graph_fingerprint(self.graph),
            "pass": list(self.order),
            "iterations": ITERATIONS,
            "sssp_source": self.source,
            "clients": 1,
            "loop": "closed",
            "store": "embedded, in-memory",
        }

    def setup(self):
        graph = analytics_scale_graph(VERTICES, EDGES, seed=GRAPH_SEED)
        store = SQLGraphStore()
        store.load_graph(graph)
        if store.vertex_count() != VERTICES:
            raise RuntimeError("first op failed: wrong vertex count")
        return store

    def teardown(self, store):
        store.close()

    def stream(self):
        while True:
            for algorithm in self.order:
                yield Run(algorithm)

    def execute(self, store):
        return lambda op: run_algorithm(store, op.name, self.source)

    def check(self, op, result):
        expected = self.expected[op.name]
        if op.name == "pagerank":
            if result.keys() != expected.keys() or any(
                    abs(result[vid] - expected[vid]) > PAGERANK_TOLERANCE
                    for vid in expected):
                return False
        elif result != expected:
            return False
        # repeated runs must return identical results
        return self.first.setdefault(op.name, result) == result

    def timed(self, store):
        stream = self.stream()
        execute = self.execute(store)
        size = len(ALGORITHMS)
        warm = Samples()
        run_ops(execute, stream, self.check, warm, count=size)
        samples = run_clients(
            [whole_cycles(execute, stream, self.check, size)],
            self.ctx.seconds)
        report_failures(self.name, warm)
        report_failures(self.name, samples)
        return samples, peak_rss_mb(), (warm.attempted, warm.failed)

    # ------------------------------------------------------------------
    def traced(self):
        ctx = self.ctx
        layers = {}
        store = SQLGraphStore()
        layers.update(timed_load(store, self.graph))

        stream = self.stream()
        passes = max(1, min(TRACE_PASSES, int(ctx.seconds)))
        size = len(ALGORITHMS)
        execute = self.execute(store)
        warm, untraced = Samples(), Samples()
        run_ops(execute, stream, self.check, warm, count=size)
        run_ops(execute, stream, self.check, untraced, count=size)

        runs = {algorithm: [] for algorithm in ALGORITHMS}

        def execute_traced(op):
            ctx.tracer.next_op()
            with ctx.tracer.span(f"analytics.{op.name}"):
                result = run_algorithm(store, op.name, self.source)
            runs[op.name].append(store.last_analytics_stats)
            return result

        plan0 = store.database.plan_cache.stats()
        traced = Samples()
        run_ops(execute_traced, stream, self.check, traced,
                count=passes * size)
        report_failures(self.name, traced)
        layers["analytics.plan_cache_hit_ratio"] = hit_ratio(
            plan0, store.database.plan_cache.stats())

        elapsed_total = iterating_total = 0.0
        for algorithm, stats_list in runs.items():
            per_iteration = [entry["elapsed_s"] for stats in stats_list
                             for entry in stats.iterations]
            iterating = sum(per_iteration)
            elapsed = sum(stats.elapsed_s for stats in stats_list)
            elapsed_total += elapsed
            iterating_total += iterating
            prefix = f"analytics.{algorithm}"
            layers[f"{prefix}.run_ms"] = median(
                [stats.elapsed_s for stats in stats_list]) * 1e3
            layers[f"{prefix}.per_iter_ms"] = median(per_iteration) * 1e3
            layers[f"{prefix}.edge_iters_per_s"] = ratio(
                EDGES * len(per_iteration), iterating)
            layers[f"{prefix}.statements"] = median(
                [stats.statements_executed for stats in stats_list])
        layers["analytics.setup_share"] = ratio(
            elapsed_total - iterating_total, elapsed_total)
        # the first pass parses and plans every statement; later ones
        # find them in the prepared-statement cache
        untraced_pass = sum(untraced.latencies)
        traced_pass = median(pass_totals(traced.latencies, size))
        layers["analytics.first_pass_over_warm"] = ratio(
            sum(warm.latencies),
            median(pass_totals(untraced.latencies + traced.latencies, size)))
        layers["trace.overhead_share"] = ratio(
            traced_pass - untraced_pass, untraced_pass)
        layers["trace.ops"] = passes * size
        # no parse, no wire, no log: the whole op is statements on scratch
        # tables, so this workload has no share.* split to report
        report_failures(self.name, warm)
        report_failures(self.name, untraced)
        runs = (warm, untraced, traced)
        return (layers, sum(run.attempted for run in runs),
                sum(run.failed for run in runs))


def pass_totals(latencies, size):
    """Seconds per whole pass, from the per-run latencies in order."""
    return [sum(latencies[first:first + size])
            for first in range(0, len(latencies) - size + 1, size)]

"""Reads replayed stage by stage through the product's public functions,
and the cache and buffer-pool counters read beside them.

``SQLGraphStore.run`` is parse -> parameterize -> translation-cache
lookup -> bind -> ``Database.execute`` -> unwrap.  From outside the
program the only way to see where a read's time goes is to take those
steps one by one, with a span around each (in-program spans are the
next issue).  Shared by ``fig8_embedded`` and ``linkbench_embedded``.
"""

from __future__ import annotations

from time import perf_counter

from repro.core.translator import (
    bind_parameters,
    parameterize_query,
    strip_parameter_markers,
)
from repro.gremlin.parser import parse_gremlin
from repro.relational.sql.parser import parse_statement

from ledger.harness import hit_ratio, median, ratio


def cache_counters(store):
    return (store.translation_cache.stats(),
            store.database.plan_cache.stats())


def cache_ratios(before, after):
    return {
        "translator.cache_hit_ratio": hit_ratio(before[0], after[0]),
        "plan_cache.hit_ratio": hit_ratio(before[1], after[1]),
    }


def pool_counters(pool):
    return (pool.hits, pool.misses, pool.evictions)


def pool_layers(deltas, ops):
    """Buffer-pool layer metrics from ``(hits, misses, evictions)``
    deltas over *ops* ops (exact counts)."""
    hits, misses, evictions = deltas
    return {
        "buffer_pool.fetches_per_op": ratio(hits + misses, ops),
        "buffer_pool.hit_ratio": ratio(hits, hits + misses),
        "buffer_pool.evictions_per_op": ratio(evictions, ops),
    }


class StagedReads:
    """Replays Gremlin reads stage by stage through the public functions
    (the steps ``SQLGraphStore.run`` takes), with a span around each.

    The template cache is the harness's own, so the first sight of a
    template is the cold path (``GremlinTranslator.translate``) and
    every later one the warm path (``parameterize_query`` +
    ``bind_parameters``).
    """

    STAGES = ("gremlin.parse", "translator.parameterize", "translator.bind",
              "database.execute")

    def __init__(self, store, tracer):
        self.store = store
        self.tracer = tracer
        self.templates = {}
        self.cold = []
        self.sql_parse = []

    def run(self, text):
        tracer = self.tracer
        with tracer.span("gremlin.parse"):
            query = parse_gremlin(text)
        with tracer.span("translator.parameterize"):
            template, values, key = parameterize_query(query)
        entry = self.templates.get(key)
        if entry is None:
            start = perf_counter()
            marked = self.store.translator.translate(template)
            entry = strip_parameter_markers(marked)
            self.cold.append(perf_counter() - start)
            self.templates[key] = entry
            start = perf_counter()
            parse_statement(entry[0])
            self.sql_parse.append(perf_counter() - start)
        sql, recipe = entry
        with tracer.span("translator.bind"):
            params = bind_parameters(values, recipe)
        with tracer.span("database.execute"):
            result = self.store.database.execute(sql, params)
        position = result.columns.index("val")
        return [row[position] for row in result.rows]

    def stage_sum(self):
        """Sum over the stages of their median self time, in seconds."""
        self_times = self.tracer.self_times()
        return sum(median(self_times.get(stage, ())) for stage in self.STAGES)

    def shares(self, totals, total):
        """The staged stages' summed self times (*totals*, from
        ``Tracer.self_totals``) as shares of *total* seconds of untraced
        op time."""
        staged = {stage: totals.get(stage, 0.0) for stage in self.STAGES}
        execute = staged.pop("database.execute")
        return {
            "share.parse_translate": ratio(sum(staged.values()), total),
            "share.execute": ratio(execute, total),
        }

    def layers(self):
        self_times = self.tracer.self_times()

        def micros(stage):
            return median(self_times.get(stage, ())) * 1e6

        return {
            "gremlin.parse_us": micros("gremlin.parse"),
            "translator.warm_us": micros("translator.parameterize")
            + micros("translator.bind"),
            "translator.cold_us": median(self.cold) * 1e6,
            "sql.parse_cold_us": median(self.sql_parse) * 1e6,
            "database.execute_us": micros("database.execute"),
            "harness.self_us": micros("op"),
        }

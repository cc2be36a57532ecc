"""Observability for the query path: per-query stats, plan analysis.

Dependency-free, and holding no counters of its own: each engine counter
is a plain integer on the object that counts (``BufferPool.hits``,
``Index.probes``, ``LRUCache.misses``, the WAL's ``records``...).

* :mod:`repro.obs.stats` — per-query :class:`ExecutionStats` (operator
  actual rows + inclusive wall time via :func:`instrument_plan`), the
  translator's :class:`TranslationTrace`, the store-level
  :class:`QueryStats` that ties a Gremlin query to its SQL, trace and
  execution counters, and the server's :class:`TimingHistogram`.
* :mod:`repro.obs.context` — the calling thread's request record
  (:func:`~repro.obs.context.current`): the last query, statement,
  analytics run, translation trace and plan-cache outcome, plus the
  serving session it belongs to.

See ``docs/OBSERVABILITY.md`` for the counters and output formats.
"""

from repro.obs.context import current, session_scope
from repro.obs.stats import (
    AnalyticsStats,
    ExecutionStats,
    OperatorStats,
    QueryStats,
    TimingHistogram,
    TranslationTrace,
    instrument_plan,
    render_analyzed_plan,
)

__all__ = [
    "AnalyticsStats",
    "current",
    "session_scope",
    "ExecutionStats",
    "OperatorStats",
    "QueryStats",
    "TimingHistogram",
    "TranslationTrace",
    "instrument_plan",
    "render_analyzed_plan",
]

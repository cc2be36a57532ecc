"""Observability for the query path: per-query stats, plan analysis.

Dependency-free, and holding no counters of its own: each engine counter
is a plain integer on the object that counts (``BufferPool.hits``,
``Index.probes``, ``LRUCache.misses``, the WAL's ``records``...).

* :mod:`repro.obs.stats` — per-query :class:`ExecutionStats` (operator
  actual rows + inclusive wall time via :func:`instrument_plan`), the
  translator's :class:`TranslationTrace`, the store-level
  :class:`QueryStats` that ties a Gremlin query to its SQL, trace and
  execution counters, and the server's :class:`TimingHistogram`.
* :mod:`repro.obs.context` — the serving session a thread works for.

See ``docs/OBSERVABILITY.md`` for the counters and output formats.
"""

from repro.obs.context import (
    clear_session,
    current_connection,
    current_session_id,
    session_scope,
    set_session,
)
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
    "clear_session",
    "current_connection",
    "current_session_id",
    "session_scope",
    "set_session",
    "ExecutionStats",
    "OperatorStats",
    "QueryStats",
    "TimingHistogram",
    "TranslationTrace",
    "instrument_plan",
    "render_analyzed_plan",
]

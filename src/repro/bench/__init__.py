"""Benchmark harness: timing protocol, concurrency driver, reporting."""

from repro.bench.runner import warm_cache_time
from repro.bench.concurrency import ThroughputResult, run_throughput
from repro.bench.reporting import format_table

__all__ = [
    "ThroughputResult",
    "format_table",
    "run_throughput",
    "warm_cache_time",
]

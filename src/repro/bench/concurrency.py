"""Closed-loop multi-requester throughput driver (paper Figure 9).

Each requester is a thread running operations back-to-back against a store
adapter for a fixed duration; throughput is total completed operations per
second.  The simulated client/server round trips sleep (releasing the GIL),
so the concurrency behaviour of chatty vs. one-shot protocols emerges the
same way it does between real clients and a localhost server.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field


@dataclass
class ThroughputResult:
    requesters: int
    duration: float
    operations: int
    per_op_seconds: dict = field(default_factory=dict)
    per_op_max: dict = field(default_factory=dict)
    errors: int = 0

    @property
    def ops_per_second(self):
        if self.duration <= 0:
            return 0.0
        return self.operations / self.duration


def run_throughput(adapter, generator_factory, requesters=1, duration=1.0,
                   record_latency=False):
    """Run a closed-loop throughput test.

    :param adapter: object with ``execute(operation)``.
    :param generator_factory: ``requester_id -> iterator of operations``.
    :param requesters: number of concurrent requester threads.
    :param duration: seconds to run.
    :param record_latency: collect per-operation latency stats
        (mean / max per operation name, paper Tables 6 and 7).
    """
    stop_at = time.perf_counter() + duration
    counts = [0] * requesters
    errors = [0] * requesters
    latencies: dict[str, list[float]] = {}
    latency_lock = threading.Lock()

    def worker(requester_id):
        generator = generator_factory(requester_id)
        while time.perf_counter() < stop_at:
            operation = next(generator)
            start = time.perf_counter()
            try:
                adapter.execute(operation)
            except Exception:  # benchmark workers count failures instead of dying mid-measurement
                errors[requester_id] += 1
                continue
            counts[requester_id] += 1
            if record_latency:
                elapsed = time.perf_counter() - start
                with latency_lock:
                    latencies.setdefault(operation[0], []).append(elapsed)

    threads = [
        threading.Thread(target=worker, args=(i,), daemon=True)
        for i in range(requesters)
    ]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - started

    result = ThroughputResult(
        requesters=requesters,
        duration=elapsed,
        operations=sum(counts),
        errors=sum(errors),
    )
    if record_latency:
        for name, samples in latencies.items():
            result.per_op_seconds[name] = sum(samples) / len(samples)
            result.per_op_max[name] = max(samples)
    return result

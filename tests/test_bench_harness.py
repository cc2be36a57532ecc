"""Tests for the benchmark harness (timing + concurrency drivers)."""

import itertools
import time

from repro.bench.concurrency import run_throughput
from repro.bench.reporting import format_table, milliseconds
from repro.bench.runner import warm_cache_time


class TestTimingProtocol:
    def test_warm_cache_discards_first(self):
        calls = []

        def fn():
            calls.append(1)

        mean, samples = warm_cache_time(fn, runs=5)
        assert len(calls) == 5
        assert len(samples) == 5
        assert mean >= 0

    def test_warm_mean_excludes_cold_run(self):
        state = {"first": True}

        def fn():
            if state["first"]:
                state["first"] = False
                time.sleep(0.05)

        mean, samples = warm_cache_time(fn, runs=4)
        assert samples[0] >= 0.05
        assert mean < 0.05


class _CountingAdapter:
    def __init__(self, fail_every=0):
        self.count = 0
        self.fail_every = fail_every

    def execute(self, operation):
        self.count += 1
        if self.fail_every and self.count % self.fail_every == 0:
            raise RuntimeError("boom")
        time.sleep(0.001)


def op_stream(requester_id):
    return itertools.cycle([("noop", {})])


class TestThroughputDriver:
    def test_single_requester(self):
        adapter = _CountingAdapter()
        result = run_throughput(adapter, op_stream, requesters=1, duration=0.2)
        assert result.operations > 50
        assert result.ops_per_second > 0
        assert result.errors == 0

    def test_multiple_requesters_scale_sleepy_work(self):
        single = run_throughput(
            _CountingAdapter(), op_stream, requesters=1, duration=0.3
        )
        multi = run_throughput(
            _CountingAdapter(), op_stream, requesters=8, duration=0.3
        )
        assert multi.ops_per_second > single.ops_per_second * 2

    def test_errors_counted_not_fatal(self):
        adapter = _CountingAdapter(fail_every=5)
        result = run_throughput(adapter, op_stream, requesters=2, duration=0.2)
        assert result.errors > 0
        assert result.operations > 0

    def test_latency_recording(self):
        result = run_throughput(
            _CountingAdapter(), op_stream, requesters=1, duration=0.2,
            record_latency=True,
        )
        assert "noop" in result.per_op_seconds
        assert result.per_op_max["noop"] >= result.per_op_seconds["noop"] * 0.5


class TestReporting:
    def test_format_table(self):
        text = format_table(
            ["name", "value"], [["a", 1.234], ["bb", 1234.5]], title="T"
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1]
        assert len(lines) == 5

    def test_milliseconds(self):
        assert milliseconds(0.25) == 250.0

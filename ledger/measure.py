"""Closed-loop measurement shared by the request workloads.

A *closed loop* sends a client's next op only after the previous reply,
so a slower system receives less load; the client count is fixed and
stated in each entry's ``config``.  The clock runs only around the call
into the product: generating the op, updating the model and checking the
result all happen outside it.
"""

from __future__ import annotations

import sys
import threading
from time import perf_counter

from ledger.harness import quantile

GROUPS = 50
"""Default number of groups a timed window is cut into (see
:meth:`Samples.end_to_end`): 0.2 s of a 10 s window, some 230 ops on the
slowest request workload, so a group's p90 has 20 samples beyond it."""

QUIET_QUANTILE = 0.10
"""The share of a window's groups the end-to-end numbers are read from:
the rate a tenth of the groups beat, the latencies a tenth stay under."""


class Samples:
    """Per-op records of one timed window: end time, latency, kind, ok."""

    def __init__(self):
        self.ends = []
        self.latencies = []
        self.names = []
        self.reads = []
        self.oks = []
        self.errors = []  # first few failure descriptions, for stderr
        self.started = self.stopped = 0.0

    def record(self, end, latency, name, is_read, ok):
        self.ends.append(end)
        self.latencies.append(latency)
        self.names.append(name)
        self.reads.append(is_read)
        self.oks.append(ok)

    def note_error(self, text):
        if len(self.errors) < 5:
            self.errors.append(text)

    def merge(self, other):
        self.ends += other.ends
        self.latencies += other.latencies
        self.names += other.names
        self.reads += other.reads
        self.oks += other.oks
        for text in other.errors:
            self.note_error(text)

    # ------------------------------------------------------------------
    @property
    def attempted(self):
        return len(self.oks)

    @property
    def failed(self):
        return len(self.oks) - sum(self.oks)

    def throughput(self):
        """Correct ops per second over the whole window.  The window ends
        when its last op does, so an op running past the deadline counts
        in full."""
        span = self.stopped - self.started
        return sum(self.oks) / span if span > 0 else 0.0

    def latencies_of(self, reads=None, name=None):
        return [
            latency
            for latency, is_read, op_name in zip(self.latencies, self.reads,
                                                 self.names)
            if (reads is None or is_read == reads)
            and (name is None or op_name == name)
        ]

    def groups(self, size=None):
        """The window's ops in completion order, cut into consecutive
        groups of *size* ops: one cycle for a workload that repeats a
        fixed one (:attr:`Workload.group_size`), else a fiftieth of the
        window (:data:`GROUPS`).  A trailing partial group is dropped.
        Yields ``(seconds, correct, latencies)``.
        """
        order = sorted(range(len(self.ends)), key=self.ends.__getitem__)
        size = size or max(1, len(order) // GROUPS)
        previous = self.started
        for first in range(0, len(order) - size + 1, size):
            members = order[first:first + size]
            last = self.ends[members[-1]]
            yield (last - previous,
                   sum(self.oks[i] for i in members),
                   [self.latencies[i] for i in members])
            previous = last

    def end_to_end(self, group_size=None):
        """The request metrics every workload reports, by one rule: cut
        the window into groups (:meth:`groups`), take each group's rate,
        p50 and p90, and report the *quiet decile* over the groups — the
        rate a tenth of the groups beat, the latencies a tenth of them
        stay under.

        The sandbox slows down for milliseconds or for seconds at a
        time, and only ever slows down.  A pooled tail or a whole-window
        rate moves with every such burst; the quiet decile holds as long
        as a tenth of the groups run undisturbed, and with fifty groups
        four or five lucky ones cannot set it.  What it sees is whatever
        slows every group: a cost paid per op, or a stall that recurs
        within each group (a commit window, a collection).  What it
        cannot see is a stall confined to some groups.  The pooled
        tails, which can, are in :meth:`ungated`; ``compare`` gives them
        a verdict too.

        The tail is the p90, not the p95.  On ``linkbench_embedded`` one
        op in twenty-six performs the commit window's ``fsync``, so the p95
        there is the host's disk, which changes by the minute, while the
        p90 is the engine's slowest reads; and where several processes
        share the two cores, a neighbour busy a fifth of the time in
        5 ms bursts moved the p95 of ``linkbench_served`` by 30-70% and
        its p90 by 7-13% (README, "Bounds and noise").
        """
        rates, p50s, p90s = [], [], []
        for seconds, correct, latencies in self.groups(group_size):
            rates.append(correct / seconds if seconds > 0 else 0.0)
            p50s.append(quantile(latencies, 0.50))
            p90s.append(quantile(latencies, 0.90))
        return {
            "ops_per_s": quantile(rates, 1.0 - QUIET_QUANTILE),
            "op_p50_ms": quantile(p50s, QUIET_QUANTILE) * 1e3,
            "op_p90_ms": quantile(p90s, QUIET_QUANTILE) * 1e3,
        }

    def ungated(self):
        """Printed and stored, not gated by the driver: pooled over the
        whole window, so every stall counts at its weight and every
        burst of the box does too.  ``compare`` sets the pooled rate,
        p90 and p95s against the same bounds (see ``compare.POOLED``)."""
        reads = self.latencies_of(reads=True)
        writes = self.latencies_of(reads=False)
        return {
            "samples": len(self.latencies),
            "window_ops_per_s": self.throughput(),
            "pooled_p50_ms": quantile(self.latencies, 0.50) * 1e3,
            "pooled_p90_ms": quantile(self.latencies, 0.90) * 1e3,
            "pooled_p95_ms": quantile(self.latencies, 0.95) * 1e3,
            "op_p99_ms": quantile(self.latencies, 0.99) * 1e3,
            "op_max_ms": max(self.latencies, default=0.0) * 1e3,
            "read_samples": len(reads),
            "read_p50_ms": quantile(reads, 0.50) * 1e3,
            "read_p95_ms": quantile(reads, 0.95) * 1e3,
            "write_samples": len(writes),
            "write_p50_ms": quantile(writes, 0.50) * 1e3,
            "write_p95_ms": quantile(writes, 0.95) * 1e3,
        }


class Workload:
    """What ``run.py`` drives.  Subclasses add ``name``, ``config()``,
    ``setup()`` / ``teardown(state)``, ``timed(state)`` and ``traced()``.
    """

    group_size = None
    """Ops per group of the end-to-end statistics: a fiftieth of the
    window by default, one cycle for workloads that repeat a fixed one."""

    def __init__(self, ctx):
        self.ctx = ctx

    def end_to_end(self, samples):
        return samples.end_to_end(self.group_size)


class Deadline:
    """When the closed loops stop; ``cut()`` stops them early."""

    def __init__(self, seconds):
        self.started = perf_counter()
        self.at = self.started + seconds

    def cut(self):
        self.at = 0.0


def run_ops(execute, stream, check, samples, deadline=None, count=None):
    """Drive one client's closed loop until *deadline* or for *count* ops.

    ``execute(op)`` calls into the product and returns the normalised
    result; ``check(op, result)`` is the correctness verdict.  Any
    exception is a failed op, never a dead client.
    """
    done = 0
    while count is None or done < count:
        if deadline is not None and perf_counter() >= deadline.at:
            break
        op = next(stream)
        failure = None
        start = perf_counter()
        try:
            result = execute(op)
        except Exception as exc:  # reprolint: disable=broad-except -- op boundary: a failure is counted, the loop goes on
            failure = f"{op!r}: {type(exc).__name__}: {exc}"
        end = perf_counter()
        if failure is None and not check(op, result):
            failure = f"{op!r}: wrong result {str(result)[:200]}"
        if failure is not None:
            samples.note_error(failure)
        samples.record(end, end - start, op.name, op.is_read, failure is None)
        done += 1
    return done


def closed_loop(execute, stream, check):
    """A worker for :func:`run_clients`: one client's loop to the deadline."""
    def worker(samples, deadline):
        run_ops(execute, stream, check, samples, deadline=deadline)

    return worker


def whole_cycles(execute, stream, check, cycle):
    """A worker for workloads that repeat a fixed cycle of *cycle* ops
    (the Fig-8 mix, the analytics pass): only whole cycles are run, so
    every group of the end-to-end statistics holds each op once."""
    def worker(samples, deadline):
        while perf_counter() < deadline.at:
            run_ops(execute, stream, check, samples, count=cycle)

    return worker


def run_clients(workers, seconds):
    """Run ``worker(samples, deadline)`` callables as concurrent closed
    loops for *seconds*; returns the merged :class:`Samples`.

    The first worker runs on the calling thread, so embedded workloads
    stay single-threaded.  A worker that raises stops the others.
    """
    parts = [Samples() for __ in workers]
    errors = []
    deadline = Deadline(seconds)

    def body(worker, part):
        try:
            worker(part, deadline)
        except BaseException as exc:  # reprolint: disable=broad-except -- re-raised on the caller's thread below
            errors.append(exc)
            deadline.cut()

    threads = [
        threading.Thread(target=body, args=(worker, part))
        for worker, part in zip(workers[1:], parts[1:])
    ]
    for thread in threads:
        thread.start()
    body(workers[0], parts[0])
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    merged = Samples()
    merged.started = deadline.started
    merged.stopped = perf_counter()
    for part in parts:
        merged.merge(part)
    return merged


def report_failures(workload, samples):
    for text in samples.errors:
        print(f"[{workload}] failed op: {text}", file=sys.stderr)

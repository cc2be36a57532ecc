"""Shared plumbing of the ledger: environment, spans, statistics, child
processes, scratch directories and fingerprints.

Nothing here knows about a particular workload.  The product is reached
only through its public API; ``repro.bench`` and ``benchmarks.conftest``
are never imported (a later PR must not be able to move a number by
editing a helper).
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
SRC_DIR = REPO_ROOT / "src"
SCRATCH_ROOT = LEDGER_DIR / ".scratch"
RESULTS_DIR = LEDGER_DIR / "results"
READY_PREFIX = "listening on "
BOOT_TIMEOUT_S = 60.0


def scrub_environment():
    """Product defaults only: drop every ``REPRO_*`` knob, for this
    process and (by inheritance) every child it starts."""
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    parts = [str(SRC_DIR)]
    if os.environ.get("PYTHONPATH"):
        parts.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def quantile(samples, q):
    """Linear-interpolated quantile of *samples* (0 for an empty list)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(samples):
    return statistics.median(samples) if samples else 0.0


def ratio(part, whole):
    return part / whole if whole else 0.0


def hit_ratio(before, after):
    """Hit ratio between two ``LRUCache.stats()`` snapshots."""
    hits = after["hits"] - before["hits"]
    return ratio(hits, hits + after["misses"] - before["misses"])


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around the harness's calls into each layer.

    A span is ``(name, start, end, parent index, op id)``.  A layer's
    *self time* is its span minus the part its child spans cover.  Spans
    stay in memory and are written out once, when the run ends.
    """

    def __init__(self):
        self.spans = []  # [name, start, end, parent, op]
        self._stack = []
        self._op = 0

    def next_op(self):
        self._op += 1
        return self._op

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self._op]
        self.spans.append(record)
        self._stack.append(index)
        record[1] = perf_counter()
        try:
            yield
        finally:
            record[2] = perf_counter()
            self._stack.pop()

    def self_times(self, first=0):
        """``{name: [self seconds per span]}`` over the spans from index
        *first* on."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, __ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for (name, start, end, __, __op), covered in zip(
                self.spans[first:], child_time[first:]):
            out.setdefault(name, []).append(end - start - covered)
        return out

    def self_totals(self, first=0):
        """``{name: summed self seconds}`` over the spans from index
        *first* on (one pass of a run, say)."""
        return {name: sum(times)
                for name, times in self.self_times(first).items()}

    def durations(self, name):
        return [end - start for span_name, start, end, __, __op in self.spans
                if span_name == name]

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump({
                "columns": ["name", "start_us", "end_us", "parent", "op"],
                "spans": [
                    [name, round((start - origin) * 1e6, 1),
                     round((end - origin) * 1e6, 1), parent, op]
                    for name, start, end, parent, op in self.spans
                ],
            }, fh)


# ----------------------------------------------------------------------
# scratch directories and child processes
# ----------------------------------------------------------------------
class Resources:
    """Owns every temp dir and child process of one run.

    ``close()`` runs on success, failure and ``KeyboardInterrupt`` alike
    (the caller holds it in a ``with``): children are killed by process
    group and waited for — grandchildren too — and the scratch tree is
    removed.
    """

    def __init__(self):
        self._children = []
        self.root = None

    def __enter__(self):
        SCRATCH_ROOT.mkdir(parents=True, exist_ok=True)
        self.root = Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH_ROOT))
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()
        return False

    def mkdtemp(self, prefix):
        return Path(tempfile.mkdtemp(prefix=prefix + "-", dir=self.root))

    def spawn(self, module, args):
        child = ServerProcess(module, args, self.root)
        self._children.append(child)
        return child

    def close(self):
        for child in self._children:
            child.kill()
        self._children = []
        if self.root is not None:
            shutil.rmtree(self.root, ignore_errors=True)
            self.root = None
        try:
            SCRATCH_ROOT.rmdir()  # only when no concurrent run uses it
        except OSError:
            pass


class ServerProcess:
    """``python -m <module>`` in its own process group.

    The sharded entry point forks worker shards; the group is what lets
    the harness account for (RSS) and reap the whole tree.
    """

    def __init__(self, module, args, log_dir):
        self.module = module
        self._stderr = tempfile.TemporaryFile(dir=log_dir)
        self.process = subprocess.Popen(
            [sys.executable, "-u", "-m", module, *args],
            stdout=subprocess.PIPE, stderr=self._stderr,
            cwd=str(REPO_ROOT), start_new_session=True,
        )
        self.pgid = self.process.pid
        self.address = None
        self.shard_addresses = []
        self.ended = False

    def await_ready(self):
        """Read stdout until the readiness line; returns ``(host, port)``.
        A child that says nothing is given up on after ``BOOT_TIMEOUT_S``:
        the pipe is polled, never read blocking."""
        deadline = time.monotonic() + BOOT_TIMEOUT_S
        pipe = self.process.stdout.fileno()
        pending = b""
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0 or not select.select([pipe], [], [],
                                                   remaining)[0]:
                raise RuntimeError(
                    f"{self.module} not ready in {BOOT_TIMEOUT_S}s: "
                    f"{self.stderr_tail()}")
            chunk = os.read(pipe, 4096)
            if not chunk:
                raise RuntimeError(
                    f"{self.module} exited before announcing its port "
                    f"(rc={self.process.poll()}): {self.stderr_tail()}"
                )
            *lines, pending = (pending + chunk).split(b"\n")
            for line in lines:
                line = line.decode("utf-8", "replace").strip()
                if line.startswith("shard ") and " on " in line:
                    host, port = line.rsplit(" ", 1)[1].rsplit(":", 1)
                    self.shard_addresses.append((host, int(port)))
                if line.startswith(READY_PREFIX):
                    host, port = line[len(READY_PREFIX):].rsplit(":", 1)
                    self.address = (host, int(port))
                    return self.address

    def stderr_tail(self):
        self._stderr.seek(0)
        return self._stderr.read()[-2000:].decode("utf-8", "replace")

    def members(self):
        """Pids of every live process in this child's process group."""
        pids = []
        for entry in os.listdir("/proc"):
            if not entry.isdigit():
                continue
            try:
                with open(f"/proc/{entry}/stat") as fh:
                    fields = fh.read().rsplit(")", 1)[1].split()
            except (OSError, IndexError):
                continue
            # after "pid (comm)": state ppid pgrp ...
            if fields[0] != "Z" and int(fields[2]) == self.pgid:
                pids.append(int(entry))
        return pids

    def peak_rss_mb(self):
        return sum(peak_rss_mb(pid) for pid in self.members())

    def terminate(self, timeout_s=20.0):
        """Graceful ``SIGTERM`` (drain, checkpoint, exit 0)."""
        if self.ended:
            return None
        self.process.send_signal(signal.SIGTERM)
        try:
            code = self.process.wait(timeout=timeout_s)
        except subprocess.TimeoutExpired:
            code = None
        self.kill()
        return code

    def kill(self):
        """``SIGKILL`` the whole group and wait until it is gone."""
        if self.ended:
            return
        self.ended = True
        try:
            os.killpg(self.pgid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.process.wait()
        self.process.stdout.close()
        deadline = time.monotonic() + 10.0
        while self.members() and time.monotonic() < deadline:
            time.sleep(0.01)
        self._stderr.close()


def peak_rss_mb(pid="self"):
    """``VmHWM`` of one process in MB (0 when it is already gone)."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


# ----------------------------------------------------------------------
# fingerprints
# ----------------------------------------------------------------------
def timed_load(store, graph):
    """``store.load_graph(graph)`` with the loader's layer metrics."""
    start = perf_counter()
    store.load_graph(graph)
    load_s = perf_counter() - start
    return {
        "loader.load_s": load_s,
        "loader.elements_per_s": ratio(
            graph.vertex_count() + graph.edge_count(), load_s),
    }


def graph_fingerprint(graph):
    """SHA-256 of the sorted (vertex, edge, property) listing of *graph*.

    ``compare`` refuses to diff entries whose fingerprints differ, so an
    edit to ``repro.datasets`` cannot pass as a speed-up.
    """
    digest = hashlib.sha256()
    for vertex in sorted(graph.vertices(), key=lambda v: v.id):
        digest.update(json.dumps(
            ["v", vertex.id, vertex.properties], sort_keys=True, default=str
        ).encode())
    for edge in sorted(graph.edges(), key=lambda e: e.id):
        digest.update(json.dumps(
            ["e", edge.id, edge.out_vertex.id, edge.in_vertex.id, edge.label,
             edge.properties], sort_keys=True, default=str
        ).encode())
    return digest.hexdigest()


def canonical_json_bytes(graph):
    """Size of the graph as compact JSON: the denominator of space
    amplification (bytes stored per byte of user data)."""
    total = 0
    for vertex in graph.vertices():
        total += len(json.dumps([vertex.id, vertex.properties],
                                separators=(",", ":"), default=str))
    for edge in graph.edges():
        total += len(json.dumps(
            [edge.id, edge.out_vertex.id, edge.in_vertex.id, edge.label,
             edge.properties], separators=(",", ":"), default=str))
    return total


def filesystem_type(path):
    """Filesystem type of the mount holding *path* (``unknown`` off Linux)."""
    target = str(Path(path).resolve())
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                __, mount, kind = line.split()[:3]
                prefix = mount.rstrip("/") + "/"
                if (target + "/").startswith(prefix) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def git_head():
    """``git rev-parse HEAD`` of the checkout (``unknown`` outside git)."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(REPO_ROOT),
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment_fingerprint(seed):
    return {
        "git_head": git_head(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "filesystem": filesystem_type(LEDGER_DIR),
        "seed": seed,
    }

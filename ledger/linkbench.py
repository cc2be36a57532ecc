"""The three LinkBench workloads: embedded, served, sharded.

All three replay the same seeded Table-6 op stream
(:mod:`ledger.linkbench_ops`) against the same graph,
``build_graph("linkbench", 0.5)`` — 2.5k nodes, 10k links — stored
durably under the default ``group`` commit with real ``fsync``.  They
differ only in what stands between the client and the engine, so the
differences between their numbers isolate the wire + server
(served − embedded) and the coordinator hop + router (sharded − served).
"""

from __future__ import annotations

import os
import shutil
from collections import namedtuple
from time import perf_counter

from repro.cli import build_graph
from repro.client import SQLGraphClient
from repro.core import SQLGraphStore
from repro.gremlin.parser import parse_gremlin
from repro.relational.wal import WriteAheadLog
from repro.server.protocol import decode_payload, encode_frame, jsonable_rows
from repro.sharding.router import single_shard_index

from ledger.harness import (
    canonical_json_bytes,
    filesystem_type,
    graph_fingerprint,
    median,
    peak_rss_mb,
    quantile,
    ratio,
    timed_load,
)
from ledger.linkbench_ops import (
    GREMLIN_OPS,
    OP_NAMES,
    BaseGraph,
    ClientStream,
    result_ok,
)
from ledger.measure import (
    Samples,
    Workload,
    closed_loop,
    report_failures,
    run_clients,
    run_ops,
)
from ledger.staged import (
    StagedReads,
    cache_counters,
    cache_ratios,
    pool_counters,
    pool_layers,
)

DATASET = "linkbench"
SCALE = 0.5
SHARDS = 2
WARMUP_S = 1.0
TRACE_OPS_PER_SECOND = 200
TRACE_OPS_MAX = 2000
SCALING_WINDOW_S = 2.0
PINGS = 200
WAL_PROBE_RECORDS = 200
TRACE_BLOCK = 100

# id-range phases (see ClientStream.begin_phase)
PHASE_WARMUP, PHASE_TIMED, PHASE_SCALING_1, PHASE_SCALING_N = 0, 1, 2, 3


def client_count():
    """One load-generator process with ``min(2, nproc)`` connections."""
    return min(2, os.cpu_count() or 1)


def trace_ops(seconds):
    return int(min(TRACE_OPS_MAX, TRACE_OPS_PER_SECOND * seconds))


# ----------------------------------------------------------------------
# adapters: one generated op -> one call into the product
# ----------------------------------------------------------------------
def embedded_execute(store):
    def execute(op):
        name, args = op.name, op.args
        if name == "get_link_list" or name == "multiget_link":
            return store.run(op.gremlin())
        if name == "count_link":
            return store.run(op.gremlin())[0]
        if name == "get_node":
            vertex = store.get_vertex(args["id"])
            return None if vertex is None else vertex.properties
        if name == "add_node":
            return store.add_vertex(args["id"], args["properties"])
        if name == "update_node":
            return store.set_vertex_property(
                args["id"], args["key"], args["value"])
        if name == "delete_node":
            return store.remove_vertex(args["id"])
        if name == "add_link":
            return store.add_edge(args["src"], args["dst"], args["type"],
                                  args["id"], args["properties"])
        if name == "update_link":
            return store.set_edge_property(
                args["id"], args["key"], args["value"])
        if name == "delete_link":
            return store.remove_edge(args["id"])
        raise ValueError(f"unknown op {name!r}")

    return execute


def crud_request(op):
    """The ``crud`` action and arguments of a non-Gremlin op."""
    name, args = op.name, op.args
    if name == "get_node":
        return "get_vertex", {"vertex_id": args["id"]}
    if name == "add_node":
        return "add_vertex", {"vertex_id": args["id"],
                              "properties": args["properties"]}
    if name == "update_node":
        return "set_vertex_property", {
            "vertex_id": args["id"], "key": args["key"],
            "value": args["value"]}
    if name == "delete_node":
        return "remove_vertex", {"vertex_id": args["id"]}
    if name == "add_link":
        return "add_edge", {
            "out_vertex_id": args["src"], "in_vertex_id": args["dst"],
            "label": args["type"], "edge_id": args["id"],
            "properties": args["properties"]}
    if name == "update_link":
        return "set_edge_property", {
            "edge_id": args["id"], "key": args["key"],
            "value": args["value"]}
    if name == "delete_link":
        return "remove_edge", {"edge_id": args["id"]}
    raise ValueError(f"unknown op {name!r}")


def remote_execute(client):
    def execute(op):
        if op.name in GREMLIN_OPS:
            values = client.run(op.gremlin())
            return values[0] if op.name == "count_link" else values
        action, arguments = crud_request(op)
        value = client.crud(action, **arguments)
        if op.name == "get_node":
            return None if value is None else value["properties"]
        return value

    return execute


def staged_execute(store, staged, tracer):
    """Like :func:`embedded_execute`, with a span per op: Gremlin reads
    go stage by stage (:class:`ledger.staged.StagedReads`), CRUD ops get
    one span around the procedure call."""
    crud = embedded_execute(store)

    def execute(op):
        tracer.next_op()
        with tracer.span("op"):
            if op.name in GREMLIN_OPS:
                values = staged.run(op.gremlin())
                return values[0] if op.name == "count_link" else values
            label = ("procedures.get_vertex" if op.name == "get_node"
                     else "procedures.write")
            with tracer.span(label):
                return crud(op)

    return execute


def checker(stream):
    exact = stream.exact
    return lambda op, result: result_ok(op, result, exact)


Twin = namedtuple("Twin", "execute stream check samples")


# ----------------------------------------------------------------------
# shared pieces
# ----------------------------------------------------------------------
class Dataset:
    """The graph every LinkBench workload loads, generated once per run
    in the harness for the liveness model and the fingerprint."""

    def __init__(self):
        self.graph = build_graph(DATASET, SCALE)
        self.base = BaseGraph(self.graph)

    def describe(self):
        return {
            "dataset": f"build_graph('{DATASET}', {SCALE})",
            "vertices": self.graph.vertex_count(),
            "edges": self.graph.edge_count(),
            "dataset_sha256": graph_fingerprint(self.graph),
        }


def durable_config(path):
    return {
        "wal_fsync": "group (product default, 5 ms window, real fsync)",
        "checkpoint_every": "product default (10000 records)",
        "filesystem": filesystem_type(path),
    }


def open_embedded(graph, path):
    """A durable embedded store holding *graph*; returns it after its
    first successful op."""
    store = SQLGraphStore(path=None if path is None else str(path))
    store.load_graph(graph)
    if store.get_vertex(1) is None:
        raise RuntimeError("first op failed: vertex 1 is missing")
    return store


def op_class_medians(samples):
    """``op.<name>.p50_us`` for the ten op names, plus the read/write
    split the end-to-end ``op_*`` metrics pool."""
    layers = {}
    for name in OP_NAMES:
        layers[f"op.{name}.p50_us"] = median(
            samples.latencies_of(name=name)) * 1e6
    for label, reads in (("read", True), ("write", False)):
        latencies = samples.latencies_of(reads=reads)
        layers[f"{label}.p50_us"] = quantile(latencies, 0.50) * 1e6
        layers[f"{label}.p95_us"] = quantile(latencies, 0.95) * 1e6
    return layers


def replay(execute, stream, count):
    """*count* ops of one client, untraced, checked exactly."""
    samples = Samples()
    run_ops(execute, stream, checker(stream), samples, count=count)
    return samples


def warm_twin(workload, execute, wrap=None):
    """One side of a traced run: its own copy of the seed's stream,
    replayed through *execute* until caches, plans and templates are
    warm.  *wrap* turns ``execute`` into what the measured ops go
    through."""
    stream = ClientStream(workload.dataset.base, workload.ctx.seed)
    replay(execute, stream, trace_ops(workload.ctx.seconds) // 4)
    return Twin(wrap(execute) if wrap else execute, stream,
                checker(stream), Samples())


def interleave(twins, count):
    """*count* ops on each twin, the twins taking turns block by block,
    so a slow phase of the sandbox lands on every side of a difference
    between them."""
    for __ in range(0, count, TRACE_BLOCK):
        for twin in twins:
            run_ops(twin.execute, twin.stream, twin.check, twin.samples,
                    count=TRACE_BLOCK)


def verify_recovered(store, streams):
    """Durability: everything acknowledged and not deleted is in the
    reopened store, and everything whose delete was acknowledged is not.
    Returns ``(checked, missed)``."""
    checked = missed = 0
    for stream in streams:
        nodes, links = stream.live_created()
        for node in nodes:
            checked += 1
            vertex = store.get_vertex(node)
            if vertex is None or vertex.properties != stream.node_props(node):
                missed += 1
        for link in links:
            checked += 1
            missed += store.get_edge(link) is None
        for node in stream.deleted_nodes:
            checked += 1
            missed += store.get_vertex(node) is not None
        for link in stream.deleted_links:
            checked += 1
            missed += store.get_edge(link) is not None
    return checked, missed


def crash_image(path, resources):
    """The crash model of the embedded traced run: the store's files as
    they are on disk right now, copied aside.  Reopening the copy is what
    a process killed at this instant would find (``close()`` would
    checkpoint the tail away), and no two live stores share a path."""
    image = resources.mkdtemp("crash-image") / "store"
    shutil.copytree(path, image)
    return image


def recovery_layers(path):
    """Reopen *path*, which no live store holds, and time it; returns
    ``(store, layers)``."""
    start = perf_counter()
    store = SQLGraphStore(path=str(path))
    elapsed = perf_counter() - start
    return store, {
        "recovery.reopen_ms": elapsed * 1e3,
        "recovery.replayed_records": store.database.wal_stats()["replayed"],
        "recovery.snapshot_bytes": os.path.getsize(
            os.path.join(path, "snapshot.pkl")),
    }


def wal_probe(directory):
    """Drive a scratch log directly: the cost of one append (+ OS write)
    with fsync off, and of one commit point under fsync ``always``."""
    record = ("scratch", 1, (1, {"data": "x" * 64}))
    layers = {}
    for mode, key in (("off", "wal.append_us"), ("always", "wal.fsync_us")):
        log = WriteAheadLog(os.path.join(directory, f"probe-{mode}.log"),
                            fsync=mode)
        log.open()
        try:
            costs = []
            for __ in range(WAL_PROBE_RECORDS):
                start = perf_counter()
                log.append("insert", record)
                if mode == "off":
                    log.flush()
                else:
                    start = perf_counter()  # the commit point alone
                    log.commit_point()
                costs.append(perf_counter() - start)
        finally:
            log.close()
        layers[key] = median(costs) * 1e6
    return layers


def wire_layers(ops_and_results):
    """Frame encode/decode cost and exact bytes of the stream's actual
    request and response messages, measured in the harness."""
    encode, decode, size = [], [], []
    for number, (op, result) in enumerate(ops_and_results, 1):
        if op.name in GREMLIN_OPS:
            request = {"id": number, "op": "run", "query": op.gremlin()}
            values = [result] if op.name == "count_link" else result
            start = perf_counter()
            body = {"values": [row[0] for row in
                               jsonable_rows([(v,) for v in values])]}
            shaped = perf_counter() - start
        else:
            action, arguments = crud_request(op)
            request = {"id": number, "op": "crud", "action": action,
                       **arguments}
            if op.name == "get_node":
                result = {"id": op.args["id"], "properties": result}
            body, shaped = {"value": result}, 0.0
        response = {"id": number, "ok": True, "result": body}
        start = perf_counter()
        frames = [encode_frame(request), encode_frame(response)]
        encode.append(perf_counter() - start + shaped)
        start = perf_counter()
        for frame in frames:
            decode_payload(frame[8:])
        decode.append(perf_counter() - start)
        size.append(sum(len(frame) for frame in frames))
    return {
        "wire.encode_us": median(encode) * 1e6,
        "wire.decode_us": median(decode) * 1e6,
        "wire.bytes_per_op": ratio(sum(size), len(size)),
    }


# ----------------------------------------------------------------------
# linkbench_embedded
# ----------------------------------------------------------------------
class LinkbenchEmbedded(Workload):
    name = "linkbench_embedded"

    def __init__(self, ctx):
        super().__init__(ctx)
        self.dataset = Dataset()

    def config(self):
        return {**self.dataset.describe(), "clients": 1,
                "loop": "closed", "store": "embedded, durable",
                **durable_config(self.ctx.resources.root)}

    def setup(self):
        path = self.ctx.resources.mkdtemp("lb-embedded")
        graph = build_graph(DATASET, SCALE)
        return open_embedded(graph, path)

    def teardown(self, store):
        store.close()

    def timed(self, store):
        ctx = self.ctx
        stream = ClientStream(self.dataset.base, ctx.seed)
        worker = closed_loop(embedded_execute(store), stream,
                             checker(stream))
        stream.begin_phase(PHASE_WARMUP)
        run_clients([worker], min(WARMUP_S, ctx.seconds))
        stream.begin_phase(PHASE_TIMED)
        samples = run_clients([worker], ctx.seconds)
        report_failures(self.name, samples)
        return samples, peak_rss_mb(), (0, 0)

    # ------------------------------------------------------------------
    def traced(self):
        """Per-layer numbers: the stream replayed on three twins.

        * A — durable, reads staged through the public functions with a
          span around each;
        * B — durable, untraced ``store.run`` / CRUD: the reference op
          times, the WAL and cache counters, then a reopen;
        * C — in-memory (``path=None``): the write cost without a log.
        """
        ctx = self.ctx
        count = trace_ops(ctx.seconds)
        graph = self.dataset.graph
        layers = {}

        path_b = ctx.resources.mkdtemp("lb-twin-b")
        store_b = SQLGraphStore(path=str(path_b))
        layers.update(timed_load(store_b, graph))
        layers["storage.space_amp"] = ratio(
            store_b.storage_bytes(), canonical_json_bytes(graph))

        # the three twins, each with its own copy of the seed's stream
        store_a = open_embedded(graph, ctx.resources.mkdtemp("lb-twin-a"))
        store_c = open_embedded(graph, None)
        staged = StagedReads(store_a, ctx.tracer)
        twin_a = warm_twin(self, staged_execute(store_a, staged, ctx.tracer))
        twin_b = warm_twin(self, embedded_execute(store_b))
        twin_c = warm_twin(self, embedded_execute(store_c))
        samples_a, samples_b, samples_c = (
            twin.samples for twin in (twin_a, twin_b, twin_c))
        ctx.tracer.spans.clear()

        # no checkpoint inside the run: B's log growth is then exact
        start = perf_counter()
        store_b.checkpoint()
        layers["checkpoint.duration_ms"] = (perf_counter() - start) * 1e3
        wal_path = os.path.join(path_b, "wal.log")
        wal0 = store_b.database.wal_stats()
        bytes0 = os.path.getsize(wal_path)
        caches0 = cache_counters(store_b)
        pool = store_b.database.buffer_pool
        pool0 = pool_counters(pool)
        interleave((twin_a, twin_b, twin_c), count)
        for samples in (samples_a, samples_b, samples_c):
            report_failures(self.name, samples)
        store_a.close()
        store_c.close()

        wal1 = store_b.database.wal_stats()
        writes = len(samples_b.latencies_of(reads=False))
        layers["wal.records_per_write"] = ratio(
            wal1["records"] - wal0["records"], writes)
        layers["wal.fsyncs_per_write"] = ratio(
            wal1["fsyncs"] - wal0["fsyncs"], writes)
        layers["wal.bytes_per_write"] = ratio(
            os.path.getsize(wal_path) - bytes0, writes)
        layers["checkpoint.count"] = wal1["checkpoints"] - wal0["checkpoints"]
        layers.update(cache_ratios(caches0, cache_counters(store_b)))
        layers.update(pool_layers(
            [new - old for new, old in zip(pool_counters(pool), pool0)],
            count))
        layers.update(op_class_medians(samples_b))

        # recovery over the deterministic tail the run just logged: B is
        # idle and every op it acknowledged has passed its commit point
        reopened, recovery = recovery_layers(
            crash_image(path_b, ctx.resources))
        store_b.close()
        layers.update(recovery)
        checked, missed = verify_recovered(reopened, [twin_b.stream])
        reopened.close()

        write_b = median(samples_b.latencies_of(reads=False))
        write_c = median(samples_c.latencies_of(reads=False))
        layers["procedures.write_us"] = write_c * 1e6
        layers["wal.write_overhead_us"] = (write_b - write_c) * 1e6
        layers.update(wal_probe(ctx.resources.mkdtemp("wal-probe")))
        layers.update(staged.layers())
        layers["procedures.read_us"] = median(
            ctx.tracer.durations("procedures.get_vertex")) * 1e6

        # how far the staged, traced replay can be trusted
        read_b = median(gremlin_latencies(samples_b))
        layers["store.facade_us"] = (read_b - staged.stage_sum()) * 1e6
        layers["trace.read_coverage"] = ratio(staged.stage_sum(), read_b)
        layers["trace.overhead_share"] = ratio(
            median(samples_a.latencies) - median(samples_b.latencies),
            median(samples_b.latencies))
        layers["trace.ops"] = count

        # time shares, on totals over all ops of the untraced run B
        total_b = sum(samples_b.latencies)
        writes_b = sum(samples_b.latencies_of(reads=False))
        writes_c = sum(samples_c.latencies_of(reads=False))
        layers.update(staged.shares(ctx.tracer.self_totals(), total_b))
        layers["share.wal"] = ratio(writes_b - writes_c, total_b)
        layers["share.procedures"] = ratio(
            writes_c + sum(samples_b.latencies_of(name="get_node")), total_b)
        layers["share.other"] = 1.0 - sum(
            layers[f"share.{part}"] for part in
            ("parse_translate", "execute", "procedures", "wal"))

        attempted = (samples_a.attempted + samples_b.attempted
                     + samples_c.attempted + checked)
        failed = (samples_a.failed + samples_b.failed + samples_c.failed
                  + missed)
        return layers, attempted, failed


def gremlin_latencies(samples):
    return [latency for latency, name in zip(samples.latencies, samples.names)
            if name in GREMLIN_OPS]


# ----------------------------------------------------------------------
# linkbench_served / linkbench_sharded
# ----------------------------------------------------------------------
class _Remote(Workload):
    """What the served and the sharded workload share: a subprocess
    speaking the wire protocol, ``clients`` closed-loop connections."""

    module = None

    def __init__(self, ctx, dataset=None):
        super().__init__(ctx)
        self.dataset = dataset or Dataset()
        self.clients = client_count()

    def server_args(self, path):
        raise NotImplementedError

    def config(self):
        return {**self.dataset.describe(), "clients": self.clients,
                "loop": "closed", "server": f"python -m {self.module}",
                **durable_config(self.ctx.resources.root)}

    def setup(self):
        path = self.ctx.resources.mkdtemp(self.name)
        child = self.ctx.resources.spawn(self.module, self.server_args(path))
        child.await_ready()
        child.path = path
        with self.connect(child) as client:
            if client.crud("get_vertex", vertex_id=1) is None:
                raise RuntimeError("first op failed: vertex 1 is missing")
        return child

    def teardown(self, child):
        child.terminate()

    @staticmethod
    def connect(child):
        host, port = child.address
        return SQLGraphClient(host, port).connect()

    def window(self, child, streams, seconds, phase):
        """One closed-loop window with one connection per stream."""
        clients = [self.connect(child) for __ in streams]
        try:
            workers = []
            for client, stream in zip(clients, streams):
                stream.begin_phase(phase)
                workers.append(closed_loop(remote_execute(client), stream,
                                           checker(stream)))
            return run_clients(workers, seconds)
        finally:
            for client in clients:
                client.close()

    def streams(self, clients, retired=()):
        return [ClientStream(self.dataset.base, self.ctx.seed, index, clients,
                             retired)
                for index in range(clients)]

    def timed(self, child):
        ctx = self.ctx
        streams = self.streams(self.clients)
        self.window(child, streams, min(WARMUP_S, ctx.seconds), PHASE_WARMUP)
        samples = self.window(child, streams, ctx.seconds, PHASE_TIMED)
        report_failures(self.name, samples)
        rss = child.peak_rss_mb()
        return samples, rss, self.after_timed(child, streams)

    def after_timed(self, child, streams):
        return 0, 0

    # ------------------------------------------------------------------
    def spanned(self, results):
        """Wraps a remote ``execute``: keeps every ``(op, result)`` in
        *results* for the wire replay, and puts every other op under a
        span, so the same mix sits on both sides of
        ``trace.overhead_share``."""
        tracer = self.ctx.tracer

        def wrap(execute):
            def traced(op):
                if len(results) % 2:
                    result = execute(op)
                else:
                    tracer.next_op()
                    with tracer.span("client.request"):
                        result = execute(op)
                results.append((op, result))
                return result

            return traced

        return wrap

    def embedded_twin(self):
        """The same stream on a durable embedded store in the harness:
        what the op costs with no wire and no server.  Returns
        ``(store, twin)``; the caller closes the store."""
        path = self.ctx.resources.mkdtemp("lb-twin")
        store = open_embedded(self.dataset.graph, path)
        return store, warm_twin(self, embedded_execute(store))

    def remote_layers(self, client, samples, results):
        """Layer metrics of the traced run *samples* made over *client*."""
        report_failures(self.name, samples)
        stats = client.stats()["server"]
        layers = {**op_class_medians(samples), **wire_layers(results)}
        layers["server.handle_p50_us"] = stats["latency"]["p50_ms"] * 1e3
        layers["server.errors"] = stats["errors"]
        layers["server.rejected_busy"] = stats["rejected_busy"]
        with_span = median(samples.latencies[0::2])
        without = median(samples.latencies[1::2])
        layers["trace.overhead_share"] = ratio(with_span - without, without)
        layers["trace.ops"] = len(samples.latencies)
        return layers


def ping_rtt(client):
    """Median no-op round trip over *client*, in seconds."""
    pings = []
    for __ in range(PINGS):
        start = perf_counter()
        client.ping()
        pings.append(perf_counter() - start)
    return median(pings)


def remote_shares(op, engine, ping, hop):
    """Shares of a remote op's median by differencing twins: the same
    stream on an embedded store (*engine*), a no-op round trip to a
    plain server (*ping*) and the coordinator's extra (*hop*); what is
    left is the server's own work (sessions, dispatch, result frames)."""
    return {
        "share.engine": ratio(engine, op),
        "share.wire": ratio(ping, op),
        "share.coordinator": ratio(hop, op),
        "share.server": ratio(op - engine - ping - hop, op),
    }


class LinkbenchServed(_Remote):
    name = "linkbench_served"
    module = "repro.server"

    def server_args(self, path):
        return ["--dataset", DATASET, "--scale", str(SCALE),
                "--path", str(path), "--port", "0"]

    def after_timed(self, child, streams):
        return self.crash_and_verify(child, streams)[:2]

    def crash_and_verify(self, child, streams):
        """``SIGKILL`` the server, reopen its directory, check that every
        acknowledged write survived."""
        child.kill()
        store, layers = recovery_layers(child.path)
        checked, missed = verify_recovered(store, streams)
        store.close()
        if missed:
            print(f"[{self.name}] durability: {missed} of {checked} "
                  "acknowledged writes not recovered", flush=True)
        return checked, missed, layers

    def traced(self):
        count = trace_ops(self.ctx.seconds)
        child = self.setup()
        results = []
        with self.connect(child) as client:
            client.shell(":checkpoint")  # a deterministic WAL tail follows
            served = warm_twin(self, remote_execute(client),
                                    self.spanned(results))
            store, twin = self.embedded_twin()
            interleave((served, twin), count)
            store.close()
            layers = self.remote_layers(client, served.samples, results)
            ping = ping_rtt(client)
        report_failures(self.name, twin.samples)
        op = median(served.samples.latencies)
        engine = median(twin.samples.latencies)
        layers["wire.ping_rtt_us"] = ping * 1e6
        layers["server.overhead_us"] = (op - ping - engine) * 1e6
        layers.update(remote_shares(op, engine, ping, 0.0))

        # does a second connection buy throughput?  The traced stream
        # goes on alone; the streams that then race are built knowing
        # which victim links it has already deleted
        windows = [self.window(child, [served.stream], SCALING_WINDOW_S,
                               PHASE_SCALING_1)]
        streams = [served.stream]
        if self.clients > 1:
            streams += self.streams(self.clients,
                                    served.stream.deleted_links)
            windows.append(self.window(child, streams[1:], SCALING_WINDOW_S,
                                       PHASE_SCALING_N))
        for samples in windows:
            report_failures(self.name, samples)
        layers["server.scaling_2c_over_1c"] = ratio(
            windows[-1].throughput(), windows[0].throughput())

        checked, missed, recovery = self.crash_and_verify(child, streams)
        layers.update(recovery)
        runs = (served.samples, twin.samples, *windows)
        return (layers, sum(run.attempted for run in runs) + checked,
                sum(run.failed for run in runs) + missed)


class LinkbenchSharded(_Remote):
    name = "linkbench_sharded"
    module = "repro.sharding"

    def server_args(self, path):
        return ["--shards", str(SHARDS), "--dataset", DATASET,
                "--scale", str(SCALE), "--data-dir", str(path),
                "--port", "0"]

    def config(self):
        return {**super().config(), "shards": SHARDS}

    def shard_requests(self, child):
        """Requests each shard has served, from its own ``stats`` op."""
        counts = []
        for host, port in child.shard_addresses:
            with SQLGraphClient(host, port) as client:
                counts.append(client.stats()["server"]["requests"])
        return counts

    def traced(self):
        """The seed's stream through the cluster, through one plain
        server and on an embedded store, the three taking turns block by
        block: the coordinator hop is cluster minus server."""
        count = trace_ops(self.ctx.seconds)
        warm = count // 4
        child = self.setup()
        plain = LinkbenchServed(self.ctx, self.dataset)
        plain_child = plain.setup()
        results = []
        before = self.shard_requests(child)
        with self.connect(child) as client, \
                plain.connect(plain_child) as plain_client:
            sharded = warm_twin(self, remote_execute(client),
                                     self.spanned(results))
            served = warm_twin(self, remote_execute(plain_client))
            store, twin = self.embedded_twin()
            interleave((sharded, served, twin), count)
            store.close()
            layers = self.remote_layers(client, sharded.samples, results)
            layers["coordinator.ping_rtt_us"] = ping_rtt(client) * 1e6
            ping = ping_rtt(plain_client)
        after = self.shard_requests(child)
        plain_child.terminate()
        for side in (served, twin):
            report_failures(self.name, side.samples)

        # each stats probe is itself one request on its shard
        per_shard = [b - a - 1 for a, b in zip(before, after)]
        layers["shard.requests_per_op"] = ratio(sum(per_shard), count + warm)
        layers["shard.skew"] = ratio(
            max(per_shard), sum(per_shard) / len(per_shard))

        # routing of the Gremlin reads, exact: forwarded whole or scattered
        probe = ClientStream(self.dataset.base, self.ctx.seed)
        forwarded = gremlin = 0
        for __ in range(count + warm):
            op = next(probe)
            if op.name in GREMLIN_OPS:
                gremlin += 1
                forwarded += single_shard_index(
                    parse_gremlin(op.gremlin()), SHARDS) is not None
        layers["coordinator.forwarded_share"] = ratio(forwarded, gremlin)

        op = median(sharded.samples.latencies)
        hop = op - median(served.samples.latencies)
        layers["wire.ping_rtt_us"] = ping * 1e6
        layers["coordinator.overhead_us"] = hop * 1e6
        layers.update(remote_shares(
            op, median(twin.samples.latencies), ping, hop))
        runs = (sharded.samples, served.samples, twin.samples)
        return (layers, sum(run.attempted for run in runs),
                sum(run.failed for run in runs))

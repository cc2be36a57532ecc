"""Interactive SQLGraph shell.

Usage::

    python -m repro.cli --dataset tinker
    python -m repro.cli --dataset dbpedia --scale 0.5
    python -m repro.cli --dataset linkbench --query "g.V.count()"
    python -m repro.cli --dataset tinker --path /tmp/graphdb
    python -m repro.cli --connect 127.0.0.1:7687

Inside the shell, plain input is a Gremlin query; commands start with a
colon::

    sqlgraph> g.V.has('age', T.gt, 28).name
    sqlgraph> :translate g.v(1).out.out     -- show the generated SQL
    sqlgraph> :explain g.v(1).out.out       -- show the engine's plan
    sqlgraph> :analyze g.v(1).out.out       -- run it: actual rows + timings
    sqlgraph> :sql SELECT COUNT(*) FROM ea  -- raw SQL escape hatch
    sqlgraph> :stats                        -- table sizes, load report,
                                               last-query stats
    sqlgraph> :pagerank                     -- bulk analytics: top PageRank
    sqlgraph> :components                   -- weakly-connected components
    sqlgraph> :labelprop                    -- label-propagation communities
    sqlgraph> :sssp 1 [weight]              -- shortest paths from vertex 1
                                               (optional weight attribute)
    sqlgraph> :checkpoint                   -- snapshot + truncate the WAL
    sqlgraph> :shards                       -- per-shard health (sharded
                                               coordinator only)
    sqlgraph> :quit

``:explain`` and ``:analyze`` take a Gremlin query, translate it, and ask
the engine for the plan — ``:analyze`` additionally executes it and
annotates every operator with actual row counts and wall time (see
docs/OBSERVABILITY.md).  ``:stats`` appends the most recent query's
translation trace and execution counters when one has run.

``:pagerank``, ``:components``, ``:labelprop`` and ``:sssp`` run the bulk
analytics drivers (iterated SQL joins/aggregates over a copy of the
graph, see docs/ANALYTICS.md) over the live graph and summarize the result plus the
per-run iteration/convergence statistics.

``--path`` opens a durable store: the first run loads the dataset and
every later run recovers the persisted graph (including any CRUD done in
between) from the write-ahead log; ``:checkpoint`` forces a snapshot and
``:stats`` shows the WAL counters (see docs/ARCHITECTURE.md).

``--connect HOST:PORT`` attaches the same shell to a running
``repro-serve`` instance instead of an embedded store: every line is
forwarded over the wire and executed server-side with identical
semantics, ``:stats`` additionally reports the serving-layer counters,
and ``:quit`` just closes the connection (see docs/SERVER.md).

``--connect`` works against a ``repro-shard`` coordinator too: Gremlin
scatters across the cluster transparently, ``:shards`` reports per-shard
health, and the shard-local commands (``:sql``, analytics, ...) direct
you to an individual worker (see docs/SHARDING.md).
"""

from __future__ import annotations

import argparse
import sys

from repro.core import SQLGraphStore
from repro.datasets import dbpedia, linkbench
from repro.gremlin.errors import GremlinError
from repro.obs import context as obs_context
from repro.relational.errors import EngineError
from repro.datasets.tinker import paper_figure_graph, tinkerpop_classic


def build_graph(dataset, scale=1.0):
    """Construct the named dataset's property graph."""
    if dataset == "tinker":
        return paper_figure_graph()
    if dataset == "classic":
        return tinkerpop_classic()
    if dataset == "dbpedia":
        config = dbpedia.DBpediaConfig(
            places=max(1, int(2000 * scale)),
            players=max(1, int(1200 * scale)),
            teams=max(1, int(60 * scale)),
            persons=max(1, int(300 * scale)),
            artists=max(1, int(200 * scale)),
        )
        return dbpedia.generate(config).graph
    if dataset == "linkbench":
        config = linkbench.LinkBenchConfig(nodes=max(1, int(5000 * scale)))
        return linkbench.build_graph(config).graph
    raise ValueError(f"unknown dataset {dataset!r}")


def build_store(dataset, scale=1.0, path=None, shard_index=None,
                shard_count=None):
    """Create a SQLGraphStore loaded with the named dataset.

    With *path*, the store is durable: a directory that already holds a
    recovered graph is used as-is (the dataset is only loaded on the very
    first run against that path).

    With *shard_index*/*shard_count*, the store holds only its
    hash-partition of the dataset: the vertices it owns plus the edges
    whose source it owns (see :mod:`repro.sharding.partition`).
    """
    store = SQLGraphStore(path=path)
    if store.schema is None:
        graph = build_graph(dataset, scale)
        if shard_count is not None:
            from repro.sharding.partition import partition_graph

            graph = partition_graph(graph, shard_count)[shard_index]
        store.load_graph(graph)
    return store


def execute_line(store, line):
    """Execute one shell line; returns the output text (no trailing \\n).

    Raises SystemExit on :quit.
    """
    line = line.strip()
    if not line:
        return ""
    if line.startswith(":"):
        return _execute_command(store, line)
    values = store.run(line)
    lines = [repr(value) for value in values[:50]]
    if len(values) > 50:
        lines.append(f"... ({len(values)} results total)")
    elif not values:
        lines.append("(no results)")
    return "\n".join(lines)


#: commands that require a local relational engine and therefore cannot
#: run on the sharded coordinator (each worker shard still serves them)
_SHARD_LOCAL_COMMANDS = frozenset({
    ":translate", ":explain", ":analyze", ":sql",
    ":pagerank", ":components", ":labelprop", ":sssp", ":checkpoint",
})


def _execute_command(store, line):
    command, __, argument = line.partition(" ")
    argument = argument.strip()
    if command in (":quit", ":q", ":exit"):
        raise SystemExit(0)
    if getattr(store, "is_sharded", False):
        return _execute_sharded_command(store, command, argument)
    if command == ":shards":
        return "not a sharded store (connect to a repro-shard coordinator)"
    if command == ":translate":
        if not argument:
            return "usage: :translate <gremlin query>"
        try:
            return store.translate(argument)
        except (GremlinError, EngineError) as exc:
            return f"cannot translate: {type(exc).__name__}: {exc}"
    if command == ":explain":
        return _explain(store, argument, analyze=False)
    if command == ":analyze":
        return _explain(store, argument, analyze=True)
    if command == ":sql":
        result = store.database.execute(argument)
        if result.columns:
            header = " | ".join(result.columns)
            body = "\n".join(
                " | ".join(str(value) for value in row)
                for row in result.rows[:50]
            )
            return f"{header}\n{body}" if body else header
        return f"ok ({result.rowcount} rows affected)"
    if command == ":stats":
        stats = store.table_stats()
        lines = [f"{name:6} {count:>10} rows" for name, count in
                 sorted(stats["rows"].items())]
        report = stats["load"]
        lines.append(
            f"loaded {report.vertex_count} vertices / "
            f"{report.edge_count} edges; out spill "
            f"{report.out.spill_percentage:.2f}%, in spill "
            f"{report.incoming.spill_percentage:.2f}%"
        )
        lines.extend(_cache_lines(store))
        lines.extend(_wal_lines(store))
        lines.extend(_last_query_lines())
        return "\n".join(lines)
    if command == ":pagerank":
        ranks = store.pagerank()
        top = sorted(ranks.items(), key=lambda item: (-item[1], item[0]))
        lines = [f"v[{vid}]  {rank:.6f}" for vid, rank in top[:10]]
        if len(top) > 10:
            lines.append(f"... ({len(top)} vertices total)")
        return "\n".join(lines + _analytics_lines()) or "(empty graph)"
    if command == ":components":
        components = store.connected_components()
        sizes = {}
        for label in components.values():
            sizes[label] = sizes.get(label, 0) + 1
        ordered = sorted(sizes.items(), key=lambda item: (-item[1], item[0]))
        lines = [
            f"component {label}: {size} vertices"
            for label, size in ordered[:10]
        ]
        if len(ordered) > 10:
            lines.append(f"... ({len(ordered)} components total)")
        return "\n".join(lines + _analytics_lines()) or "(empty graph)"
    if command == ":labelprop":
        labels = store.label_propagation()
        sizes = {}
        for label in labels.values():
            sizes[label] = sizes.get(label, 0) + 1
        ordered = sorted(sizes.items(), key=lambda item: (-item[1], item[0]))
        lines = [
            f"community {label}: {size} vertices"
            for label, size in ordered[:10]
        ]
        if len(ordered) > 10:
            lines.append(f"... ({len(ordered)} communities total)")
        return "\n".join(lines + _analytics_lines()) or "(empty graph)"
    if command == ":sssp":
        parts = argument.split()
        if not parts or not parts[0].lstrip("-").isdigit():
            return "usage: :sssp <source vid> [weight attribute]"
        weight_key = parts[1] if len(parts) > 1 else None
        try:
            distances = store.shortest_paths(
                int(parts[0]), weight_key=weight_key
            )
        except EngineError as exc:
            return f"cannot run sssp: {type(exc).__name__}: {exc}"
        ordered = sorted(distances.items(), key=lambda item: (item[1], item[0]))
        lines = [f"v[{vid}]  {dist:g}" for vid, dist in ordered[:10]]
        if len(ordered) > 10:
            lines.append(f"... ({len(ordered)} reachable vertices total)")
        return "\n".join(lines + _analytics_lines())
    if command == ":checkpoint":
        if store.database.wal is None:
            return "not a durable store (start with --path)"
        taken = store.checkpoint()
        return "checkpoint written" if taken else \
            "checkpoint skipped (transactions active)"
    if command == ":help":
        return __doc__.strip()
    return f"unknown command {command!r} (try :help)"


def _execute_sharded_command(store, command, argument):
    """Commands against the sharded coordinator's ShardedStore."""
    if command in _SHARD_LOCAL_COMMANDS:
        return (
            f"{command} is shard-local; connect to an individual shard "
            "server to run it against one partition (:shards lists them)"
        )
    if command == ":shards":
        return _shards_report(store)
    if command == ":stats":
        vertices, edges = store.router.counts()
        lines = [
            f"sharded store: {store.num_shards} shards, "
            f"{vertices} vertices / {edges} edges",
        ]
        lines.extend(_shards_report(store).splitlines())
        lines.extend(_last_query_lines_sharded())
        return "\n".join(lines)
    if command == ":help":
        return __doc__.strip()
    return f"unknown command {command!r} (try :help)"


def _shards_report(store):
    """Render per-shard health for :shards / :stats."""
    lines = []
    for entry in store.shard_health():
        if entry.get("ok"):
            detail = (
                f"up    {entry['requests']} requests, "
                f"{entry['errors']} errors, "
                f"{entry['active_sessions']} sessions"
            )
            if "restarts" in entry:
                detail += f", {entry['restarts']} restarts"
        else:
            detail = f"DOWN  {entry.get('error', 'unreachable')}"
        lines.append(
            f"shard {entry['shard']} @ {entry['address']:<21} {detail}"
        )
    return "\n".join(lines)


def _last_query_lines_sharded():
    """Render the last-query section of sharded :stats."""
    stats = obs_context.current().query
    if stats is None or stats.sharding is None:
        return []
    sharding = stats.sharding
    if sharding["mode"] == "forward":
        route = f"forwarded whole to shard {sharding['target_shard']}"
    else:
        route = (
            f"scatter-gather: {sharding['hops']} hops, "
            f"{sharding['requests']} shard round-trips"
        )
    return [
        "",
        f"last query: {stats.gremlin}",
        f"  {stats.rows_returned} rows in {stats.elapsed_s * 1000:.3f}ms",
        f"  routing: {route}",
    ]


def _analytics_lines():
    """Render the per-run summary line after an analytics command."""
    stats = obs_context.current().analytics
    if stats is None:
        return []
    state = "converged" if stats.converged else "iteration cap hit"
    return [
        f"{stats.algorithm}: {stats.iteration_count} iterations ({state}), "
        f"{stats.statements_executed} statements in "
        f"{stats.elapsed_s * 1000:.1f}ms"
    ]


def _explain(store, argument, analyze):
    """Translate Gremlin and show the engine's plan; never raises."""
    name = ":analyze" if analyze else ":explain"
    if not argument:
        return f"usage: {name} <gremlin query>"
    try:
        sql = store.translate(argument)
    except (GremlinError, EngineError) as exc:
        return f"cannot translate: {type(exc).__name__}: {exc}"
    keyword = "EXPLAIN ANALYZE " if analyze else "EXPLAIN "
    try:
        result = store.database.execute(keyword + sql)
    except EngineError as exc:
        return f"cannot explain: {type(exc).__name__}: {exc}"
    return "\n".join(row[0] for row in result.rows)


def _cache_lines(store):
    """Render the compiled-query cache counters for :stats."""
    lines = []
    # the translation cache's entries are query shapes (Gremlin text with
    # its literals slotted), each holding its statements
    for label, cache, unit in (
        ("plan cache", store.database.plan_cache, "entries"),
        ("translation cache", store.translation_cache, "shapes"),
    ):
        counters = cache.stats()
        lines.append(
            f"{label}: {counters['hits']} hits, {counters['misses']} misses, "
            f"{counters['invalidations']} invalidations, "
            f"{counters['size']} {unit}"
        )
    return lines


def _wal_lines(store):
    """Render WAL counters for :stats (empty for in-memory stores)."""
    counters = store.database.wal_stats()
    if counters is None:
        return []
    return [
        f"wal: {counters['records']} records, {counters['fsyncs']} fsyncs "
        f"({counters['fsync_mode']}), {counters['replayed']} replayed, "
        f"{counters['checkpoints']} checkpoints"
    ]


def _last_query_lines():
    """Render the last-query section of :stats (empty if none ran)."""
    record = obs_context.current()
    stats = record.query
    if stats is None:
        return []
    lines = [
        "",
        f"last query: {stats.gremlin}",
        f"  {stats.rows_returned} rows in {stats.elapsed_s * 1000:.3f}ms "
        f"(translation {stats.translate_s * 1000:.3f}ms)",
    ]
    if record.session_id is not None:
        peer = f" ({record.connection})" if record.connection else ""
        lines.append(f"  session: #{record.session_id}{peer}")
    lines += [
        f"  caches: translation "
        f"{'hit' if stats.translation_cache_hit else 'miss'}, "
        f"plan {'hit' if stats.plan_cache_hit else 'miss'}",
    ]
    if stats.trace is not None:
        lines.append("  translation: " + stats.trace.describe().splitlines()[0])
    execution = stats.execution
    if execution is not None:
        lines.append(
            f"  buffer pool: {execution.page_hits} hits, "
            f"{execution.page_misses} misses, "
            f"{execution.page_evictions} evictions"
        )
    return lines


def _remote_main(args):
    """``--connect`` mode: the REPL drives a remote store over the wire.

    Lines are forwarded via the server's ``shell`` op, so commands behave
    exactly as they do locally; only ``:quit`` is intercepted client-side
    (it closes the connection rather than stopping the server).
    """
    from repro.client import ClientError, SQLGraphClient
    from repro.server.protocol import WireError

    host, __, port_text = args.connect.rpartition(":")
    if not host or not port_text.isdigit():
        print(f"--connect wants HOST:PORT, got {args.connect!r}",
              file=sys.stderr)
        return 2
    try:
        client = SQLGraphClient(host, int(port_text)).connect()
    except (ClientError, WireError, OSError) as exc:
        print(f"cannot connect to {args.connect}: {exc}", file=sys.stderr)
        return 1
    try:
        if args.query is not None:
            print(client.shell(args.query))
            return 0
        print(f"SQLGraph shell — connected to {args.connect} "
              f"(session #{client.session_id})")
        print("enter Gremlin, or :help for commands")
        while True:
            try:
                line = input("sqlgraph> ")
            except EOFError:
                print()
                return 0
            if line.strip() in (":quit", ":q", ":exit"):
                return 0
            if not line.strip():
                continue
            try:
                output = client.shell(line)
            except WireError as exc:
                output = f"error [{exc.code}]: {exc}"
                if exc.retryable:
                    output += " (retryable)"
            except ClientError as exc:
                print(f"connection lost: {exc}", file=sys.stderr)
                return 1
            if output:
                print(output)
    finally:
        client.close()


def main(argv=None):
    parser = argparse.ArgumentParser(description="SQLGraph interactive shell")
    parser.add_argument(
        "--dataset", default="tinker",
        choices=["tinker", "classic", "dbpedia", "linkbench"],
        help="graph to load at startup",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="dataset size multiplier for dbpedia/linkbench",
    )
    parser.add_argument(
        "--query", default=None,
        help="run one Gremlin query and exit",
    )
    parser.add_argument(
        "--path", default=None,
        help="directory for durable storage (WAL + checkpoints); "
        "reopening recovers the persisted graph",
    )
    parser.add_argument(
        "--connect", default=None, metavar="HOST:PORT",
        help="attach to a running repro-serve instance instead of "
        "loading an embedded store",
    )
    args = parser.parse_args(argv)

    if args.connect is not None:
        return _remote_main(args)

    store = build_store(args.dataset, args.scale, path=args.path)
    try:
        if args.query is not None:
            print(execute_line(store, args.query))
            return 0

        print(f"SQLGraph shell — dataset {args.dataset!r} "
              f"({store.vertex_count()} vertices, {store.edge_count()} edges)")
        print("enter Gremlin, or :help for commands")
        while True:
            try:
                line = input("sqlgraph> ")
            except EOFError:
                print()
                return 0
            try:
                output = execute_line(store, line)
            except SystemExit:
                return 0
            except Exception as exc:  # REPL top level: surface anything, keep the shell alive
                output = f"error: {type(exc).__name__}: {exc}"
            if output:
                print(output)
    finally:
        store.close()


if __name__ == "__main__":
    sys.exit(main())

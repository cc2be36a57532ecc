"""The coordinator: a wire-compatible server over a sharded cluster.

:class:`CoordinatorServer` is a :class:`~repro.server.server.
SQLGraphServer` whose "store" is a :class:`~repro.sharding.router.
ShardedStore`, so every existing client — ``SQLGraphClient``,
``repro.cli --connect``, the benchmark drivers — talks to a cluster
through the same framed-JSON protocol without changes.  Gremlin reads,
the remote shell and Blueprints CRUD are inherited; the handlers that
only make sense against a single relational engine are overridden with
typed errors:

* ``begin``/``commit``/``rollback`` — there is no distributed
  transaction; multi-statement atomicity is per-shard only;
* ``sql`` and ``analytics`` — shard-local by design: connect to an
  individual worker to run them against one partition;
* ``hop``/``fetch`` — internal shard primitives; the coordinator is the
  caller of those, never the callee.
"""

from __future__ import annotations

from contextlib import nullcontext

from repro.relational.errors import TransactionError
from repro.server.server import SQLGraphServer, _BadRequest

SERVER_NAME = "sqlgraph-coordinator/1.0"


class CoordinatorServer(SQLGraphServer):
    """Serve a :class:`~repro.sharding.router.ShardedStore` cluster."""

    def __init__(self, store, **options):
        if not getattr(store, "is_sharded", False):
            raise TypeError("CoordinatorServer requires a ShardedStore")
        super().__init__(store, **options)

    # the coordinator holds no table locks of its own; each worker shard
    # applies the session budget to its local statement
    def _statement_budget(self, session):
        return nullcontext()

    # ------------------------------------------------------------------
    # shard-local ops -> typed errors
    # ------------------------------------------------------------------
    def _op_begin(self, session, message):
        raise TransactionError(
            "the sharded coordinator does not support client "
            "transactions; atomicity is per autocommitted statement, "
            "per shard"
        )

    def _op_commit(self, session, message):
        raise TransactionError("no transaction: the coordinator never "
                               "opened one")

    def _op_rollback(self, session, message):
        raise TransactionError("no transaction: the coordinator never "
                               "opened one")

    def _op_sql(self, session, message):
        raise _BadRequest(
            "raw SQL is shard-local; connect to an individual shard "
            "server to query its partition"
        )

    def _op_analytics(self, session, message):
        raise _BadRequest(
            "bulk analytics is shard-local; connect to an individual "
            "shard server to run it over one partition"
        )

    def _op_hop(self, session, message):
        raise _BadRequest("hop is a shard-internal op; the coordinator "
                          "issues it, workers serve it")

    def _op_fetch(self, session, message):
        raise _BadRequest("fetch is a shard-internal op; the coordinator "
                          "issues it, workers serve it")

    _HANDLERS = dict(SQLGraphServer._HANDLERS)
    _HANDLERS.update({
        "begin": _op_begin,
        "commit": _op_commit,
        "rollback": _op_rollback,
        "sql": _op_sql,
        "analytics": _op_analytics,
        "hop": _op_hop,
        "fetch": _op_fetch,
    })

    # ------------------------------------------------------------------
    def stats(self):
        """Serving counters plus per-shard health."""
        payload = super().stats()
        payload["shards"] = self.store.shard_health()
        return payload

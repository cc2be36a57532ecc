"""WAL commit-point reachability — the PR-9 durability bug, as a rule.

The durability contract (docs/ARCHITECTURE.md, "Durability &
recovery"): a WAL record is *promised* only once a commit point
(``wal.commit_point()`` / ``wal.sync()``) follows it.  On an
**autocommit** path — no explicit transaction open — the appending
code itself must reach that commit point before returning;
inside an explicit transaction, ``Transaction._finish`` commits later.
PR 9 fixed exactly this by hand: stored-procedure CRUD appended
mutation records and returned, so acknowledged writes could die with
the process.  This rule re-detects that bug class.

How it works, per function (see :mod:`repro.analysis.cfg` /
:mod:`repro.analysis.dataflow`):

* **sites** — CFG nodes that may append: direct ``wal.append`` /
  ``wal.log_op`` calls (receiver spelled ``wal`` / ``_wal``; the
  ``WriteAheadLog`` internals use ``self.`` receivers and stay below
  this abstraction line), mutating calls (``insert`` / ``update`` /
  ``delete`` / ``restore``) on *table-valued* expressions, and calls to
  functions already known to defer (below).  Table-valuedness is a
  small interprocedural type inference seeded at ``.table(...)`` /
  ``.get_table(...)`` / ``HeapTable(...)`` and propagated through
  locals, dict/list containers, returns and call arguments.
* **discharge** — a site is fine when *no* normal-flow path from it
  reaches function exit while avoiding every commit node (a call that
  commits, directly or transitively) and every transaction-guarded
  branch edge (``if transaction is not None: ...`` where the name came
  from ``current_transaction()``).  Sites only reachable *through* a
  transaction-guarded edge are fine outright (the explicit-transaction
  escape hatch); sites on exception paths are exempt (a failed
  operation promises nothing); sites inside ``with wal.pause():`` are
  invisible to recovery and skipped.
* **deferral** — an undischarged site makes the function *defer*: its
  callers inherit the obligation as a site at the call node.  Only
  functions that defer and have **no resolved callers** are reported —
  everything else surfaces at the outermost caller that fails to
  commit.  ``baselines/`` modules (benchmark models, no durability)
  are exempt.

A ``# reprolint: disable=wal-commit-reachability -- reason`` on a site
line discharges it *and* stops the deferral chain there.
"""

from __future__ import annotations

import ast

from repro.analysis import cfg as cfglib
from repro.analysis import dataflow
from repro.analysis.core import Finding
from repro.analysis.lockgraph import Package

RULE = "wal-commit-reachability"

_WAL_NAMES = {"wal", "_wal"}
_APPEND_ATTRS = {"append", "log_op"}
_COMMIT_ATTRS = {"commit_point", "sync"}
_MUTATORS = {"insert", "update", "delete", "restore"}
_TABLE_FACTORIES = {"table", "get_table"}


def _receiver_tail(call):
    """Last dotted component of a call's receiver (``a.b.wal`` -> ``wal``)."""
    fn = call.func
    if not isinstance(fn, ast.Attribute):
        return None
    receiver = fn.value
    if isinstance(receiver, ast.Name):
        return receiver.id
    if isinstance(receiver, ast.Attribute):
        return receiver.attr
    return None


def _is_append(call):
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _APPEND_ATTRS
        and _receiver_tail(call) in _WAL_NAMES
    )


def _is_commit(call):
    return (
        isinstance(call.func, ast.Attribute)
        and call.func.attr in _COMMIT_ATTRS
        and _receiver_tail(call) in _WAL_NAMES
    )


def _is_pause(call):
    return (
        isinstance(call, ast.Call)
        and isinstance(call.func, ast.Attribute)
        and call.func.attr == "pause"
        and _receiver_tail(call) in _WAL_NAMES
    )


def _is_current_txn_call(expr):
    if not isinstance(expr, ast.Call):
        return False
    fn = expr.func
    if isinstance(fn, ast.Attribute):
        return fn.attr == "current_transaction"
    return isinstance(fn, ast.Name) and fn.id == "current_transaction"


class _FuncFlow:
    """Per-function analysis state shared across the global fixpoints."""

    __slots__ = ("func", "cfg", "locals", "ret_kind", "commits", "defers",
                 "callees", "exempt", "pause_spans", "txn_edges",
                 "commit_nodes", "undischarged")

    def __init__(self, func, exempt):
        self.func = func
        self.cfg = cfglib.build_cfg(func.node)
        self.locals = {}    # name -> 'table' | 'map' | 'seq' | 'items'
        self.ret_kind = None
        self.commits = False
        self.defers = False
        self.callees = set()
        self.exempt = exempt
        self.pause_spans = [
            (n.lineno, getattr(n, "end_lineno", n.lineno) or n.lineno)
            for n in ast.walk(func.node)
            if isinstance(n, (ast.With, ast.AsyncWith))
            and any(_is_pause(item.context_expr) for item in n.items)
        ]
        self.txn_edges = {}
        self.commit_nodes = set()
        self.undischarged = []

    def paused(self, line):
        return any(first <= line <= last for first, last in self.pause_spans)

    def set_local(self, name, kind):
        if kind and self.locals.get(name) != kind:
            # never downgrade an established kind (may-analysis)
            if self.locals.get(name) is None:
                self.locals[name] = kind
                return True
        return False


class _Analysis:
    def __init__(self, files):
        self.package = Package(files)
        self.flows = {}
        for key, func in self.package.functions.items():
            exempt = "baselines/" in func.source_file.relative
            self.flows[key] = _FuncFlow(func, exempt)

    # --- table-valuedness -------------------------------------------

    def kind_of(self, flow, expr):
        if expr is None:
            return None
        if isinstance(expr, ast.Name):
            return flow.locals.get(expr.id)
        if isinstance(expr, ast.Call):
            fn = expr.func
            if isinstance(fn, ast.Attribute):
                if fn.attr in _TABLE_FACTORIES:
                    return "table"
                receiver = self.kind_of(flow, fn.value)
                if receiver == "map":
                    if fn.attr == "values":
                        return "seq"
                    if fn.attr == "items":
                        return "items"
                    if fn.attr == "get":
                        return "table"
            if isinstance(fn, ast.Name) and fn.id == "HeapTable":
                return "table"
            callee = self.package.resolve_call(flow.func, expr)
            if callee is not None:
                return self.flows[callee].ret_kind
            return None
        if isinstance(expr, ast.Subscript):
            if self.kind_of(flow, expr.value) in ("map", "seq"):
                return "table"
            return None
        if isinstance(expr, ast.Dict):
            if any(self.kind_of(flow, v) == "table"
                   for v in expr.values if v is not None):
                return "map"
            return None
        if isinstance(expr, ast.DictComp):
            return "map" if self.kind_of(flow, expr.value) == "table" else None
        if isinstance(expr, (ast.List, ast.Tuple, ast.Set)):
            if any(self.kind_of(flow, e) == "table" for e in expr.elts):
                return "seq"
            return None
        if isinstance(expr, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return "seq" if self.kind_of(flow, expr.elt) == "table" else None
        if isinstance(expr, ast.IfExp):
            return self.kind_of(flow, expr.body) \
                or self.kind_of(flow, expr.orelse)
        if isinstance(expr, ast.BoolOp):
            for value in expr.values:
                kind = self.kind_of(flow, value)
                if kind:
                    return kind
            return None
        if isinstance(expr, ast.NamedExpr):
            return self.kind_of(flow, expr.value)
        return None

    def _sweep(self, flow):
        """One pass of local + interprocedural kind propagation."""
        changed = False
        for node in ast.walk(flow.func.node):
            if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                changed |= flow.set_local(
                    node.targets[0].id, self.kind_of(flow, node.value))
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                iter_kind = self.kind_of(flow, node.iter)
                target = node.target
                if iter_kind == "seq" and isinstance(target, ast.Name):
                    changed |= flow.set_local(target.id, "table")
                elif iter_kind == "items" and isinstance(target, ast.Tuple) \
                        and target.elts \
                        and isinstance(target.elts[-1], ast.Name):
                    changed |= flow.set_local(target.elts[-1].id, "table")
            elif isinstance(node, ast.Return) and node.value is not None:
                kind = self.kind_of(flow, node.value)
                if kind and flow.ret_kind is None:
                    flow.ret_kind = kind
                    changed = True
            elif isinstance(node, ast.Call):
                changed |= self._seed_params(flow, node)
        return changed

    def _seed_params(self, flow, call):
        """Table-valued arguments seed the resolved callee's parameters."""
        callee = self.package.resolve_call(flow.func, call)
        if callee is None:
            return False
        target = self.flows[callee]
        args = target.func.node.args
        params = [a.arg for a in args.posonlyargs + args.args]
        if target.func.class_name and params and params[0] in ("self", "cls"):
            params = params[1:]
        named = set(params) | {a.arg for a in args.kwonlyargs}
        changed = False
        for position, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                break
            if position < len(params):
                changed |= target.set_local(
                    params[position], self.kind_of(flow, arg))
        for keyword in call.keywords:
            if keyword.arg and keyword.arg in named:
                changed |= target.set_local(
                    keyword.arg, self.kind_of(flow, keyword.value))
        return changed

    # --- summaries ---------------------------------------------------

    def run(self):
        flows = self.flows
        # 1. table-valuedness to fixpoint (bounded: kinds only grow)
        for _ in range(12):
            changed = False
            for flow in flows.values():
                changed |= self._sweep(flow)
            if not changed:
                break

        # 2. resolved callee sets + commits (exists) fixpoint
        for flow in flows.values():
            for node in ast.walk(flow.func.node):
                if isinstance(node, ast.Call):
                    if _is_commit(node):
                        flow.commits = True
                    callee = self.package.resolve_call(flow.func, node)
                    if callee is not None:
                        flow.callees.add(callee)
        changed = True
        while changed:
            changed = False
            for flow in flows.values():
                if flow.commits:
                    continue
                if any(flows[c].commits for c in flow.callees):
                    flow.commits = True
                    changed = True

        # 3. per-function commit nodes + txn-guard edges
        for flow in flows.values():
            self._mark_nodes(flow)

        # 4. deferral (monotone-grow) fixpoint
        changed = True
        while changed:
            changed = False
            for flow in flows.values():
                if flow.exempt:
                    continue
                undischarged = self._check_sites(flow)
                flow.undischarged = undischarged
                if undischarged and not flow.defers:
                    flow.defers = True
                    changed = True

        # 5. report deferring functions nobody resolves calls to
        callers = {}
        for flow in flows.values():
            for callee in flow.callees:
                callers.setdefault(callee, set()).add(flow.func.key)
            for _, _, label in flow.undischarged:
                # a table mutation is a call into HeapTable even when the
                # receiver does not resolve by name
                if label.startswith("table."):
                    method = label.split(".", 1)[1]
                    callers.setdefault(f"HeapTable.{method}", set()).add(
                        flow.func.key)
        findings = []
        for key in sorted(flows):
            flow = flows[key]
            if not flow.defers or callers.get(key):
                continue
            for line, _node, label in flow.undischarged:
                findings.append(Finding(
                    RULE, flow.func.source_file.relative, line,
                    f"{key}: {self._describe(label)} may reach function exit "
                    f"on an autocommit path without a WAL commit point",
                ))
        return findings

    @staticmethod
    def _describe(label):
        if label.startswith("call:"):
            return f"call to deferring '{label[5:]}'"
        return f"'{label}'"

    def _mark_nodes(self, flow):
        graph = flow.cfg
        txn_names = {
            stmt.targets[0].id
            for stmt in ast.walk(flow.func.node)
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and _is_current_txn_call(stmt.value)
        }

        def is_txn_expr(expr):
            return (
                isinstance(expr, ast.Name) and expr.id in txn_names
            ) or _is_current_txn_call(expr)

        for stmt in ast.walk(flow.func.node):
            if not isinstance(stmt, ast.If):
                continue
            node = graph.node_for(stmt)
            if node is None:
                continue
            branch = _txn_branch(stmt.test, is_txn_expr)
            if branch is not None:
                flow.txn_edges[node.index] = branch

    def _commit_node_set(self, flow):
        nodes = set()
        for node in flow.cfg.nodes:
            if node.stmt is None:
                continue
            for call in cfglib.calls_at(node.stmt):
                if _is_commit(call):
                    nodes.add(node.index)
                    continue
                callee = self.package.resolve_call(flow.func, call)
                if callee is not None and self.flows[callee].commits:
                    nodes.add(node.index)
        return nodes

    # --- sites and discharge -----------------------------------------

    def _check_sites(self, flow):
        graph = flow.cfg
        if not flow.commit_nodes:
            flow.commit_nodes = self._commit_node_set(flow)
        source_file = flow.func.source_file
        undischarged = []
        seen_labels = set()
        for node in graph.nodes:
            if node.stmt is None or flow.paused(node.line):
                continue
            for call in cfglib.calls_at(node.stmt):
                label = self._site_label(flow, call)
                if label is None:
                    continue
                last = getattr(node.stmt, "end_lineno", node.line) or node.line
                if source_file.suppressed(RULE, node.stmt.lineno, last):
                    continue  # discharged by hand; deferral chain ends here
                if self._discharged(flow, node):
                    continue
                if label not in seen_labels:
                    seen_labels.add(label)
                    undischarged.append((node.line, node.index, label))
        return undischarged

    def _site_label(self, flow, call):
        if _is_append(call):
            return "wal." + call.func.attr
        if isinstance(call.func, ast.Attribute) \
                and call.func.attr in _MUTATORS \
                and self.kind_of(flow, call.func.value) == "table":
            return "table." + call.func.attr
        callee = self.package.resolve_call(flow.func, call)
        if callee is not None and self.flows[callee].defers:
            return "call:" + callee
        return None

    def _discharged(self, flow, node):
        graph = flow.cfg
        txn_edges = flow.txn_edges

        def autocommit_edge(src, _dst, kind):
            return txn_edges.get(src) != kind

        # only reachable with a transaction open -> _finish commits later
        entry_reach = dataflow.reachable(
            graph, graph.entry, edge_ok=autocommit_edge)
        if node.index not in entry_reach:
            return True

        def normal_autocommit_edge(src, dst, kind):
            return kind != cfglib.EXC and autocommit_edge(src, dst, kind)

        commit_nodes = flow.commit_nodes
        return not dataflow.exists_path(
            graph, node.index,
            lambda n: n == graph.exit,
            blocked=lambda n: n in commit_nodes,
            edge_ok=normal_autocommit_edge,
        )


def _txn_branch(test, is_txn_expr):
    """Which edge kind out of this ``if`` is the in-transaction branch."""
    if (
        isinstance(test, ast.Compare)
        and len(test.ops) == 1
        and isinstance(test.comparators[0], ast.Constant)
        and test.comparators[0].value is None
        and is_txn_expr(test.left)
    ):
        if isinstance(test.ops[0], ast.IsNot):
            return cfglib.TRUE   # `txn is not None` -> true branch has txn
        if isinstance(test.ops[0], ast.Is):
            return cfglib.FALSE  # `txn is None` -> false branch has txn
    if is_txn_expr(test):
        return cfglib.TRUE
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not) \
            and is_txn_expr(test.operand):
        return cfglib.FALSE
    return None


def check_wal_commit_reachability(files):
    return _Analysis(files).run()

"""Release-on-all-paths: locks, sockets and files must not leak.

A resource acquired outside a ``with`` block must reach a release on
*every* path out of the acquiring function — including exception edges.
The checker runs a forward may-analysis over each function's CFG
(:mod:`repro.analysis.cfg`): the fact set holds the resources still
*live* along some path; an acquisition gens its resource (except on the
acquisition's own exception edge — a constructor that raised bound
nothing), and any of the following kills it:

* an explicit release: ``r.close()`` / ``r.release()`` /
  ``r.__exit__()``;
* ``r`` passed bare to any call (``LockManager.release(token)``,
  handing the socket to another owner, raising it inside an error);
* ``r`` stored anywhere (``self._sock = r``, a container, a rebind) or
  returned/yielded — ownership escapes the function and is someone
  else's contract.

Plain method calls on the resource (``r.settimeout(...)``) are ordinary
use and keep it live.  Resources that survive to the normal ``exit``
node are reported as normal-path leaks; to ``raise_exit`` as
exception-path leaks (the fix is usually ``try/finally`` or ``with``).

Tracked acquisitions (single-name assignments only):

* ``name = <anything>.acquire(...)`` — lock tokens;
* ``name = open(...)`` / ``name = <x>.open(...)`` — files;
* ``name = socket.socket(...)`` / ``socket.create_connection(...)``;
* ``name = self.<helper>(...)`` where ``<helper>`` is a same-class
  method whose body is ``return <x>.acquire(...)`` (a proxy acquirer,
  e.g. ``GraphProcedures._locked``).

Also tracked: *unbound* ``<recv>.acquire()`` expression statements,
matched to ``<recv>.release()`` on the same spelled receiver.
``__enter__`` methods are exempt (the paired ``__exit__`` releases
cross-method by protocol).
"""

from __future__ import annotations

import ast

from repro.analysis import cfg as cfglib
from repro.analysis import dataflow
from repro.analysis.core import Finding

RULE = "release-on-all-paths"

_RELEASE_ATTRS = {"close", "release", "__exit__"}


def _qualnames(tree):
    """node -> dotted name of the enclosing class/function scope."""
    names = {}

    def visit(node, stack):
        label = stack[-1] if stack else "<module>"
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                qual = f"{stack[-1]}.{child.name}" if stack else child.name
                visit(child, stack + [qual])
            else:
                names[child] = label
                visit(child, stack)
        names[node] = label

    visit(tree, [])
    return names


def _proxy_acquirers(tree):
    """Per class: method names whose body returns ``<x>.acquire(...)``."""
    proxies = {}
    for class_node in ast.walk(tree):
        if not isinstance(class_node, ast.ClassDef):
            continue
        names = set()
        for item in class_node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for stmt in ast.walk(item):
                if (
                    isinstance(stmt, ast.Return)
                    and isinstance(stmt.value, ast.Call)
                    and isinstance(stmt.value.func, ast.Attribute)
                    and stmt.value.func.attr == "acquire"
                ):
                    names.add(item.name)
        if names:
            proxies[class_node.name] = names
    return proxies


def _acquisition_kind(value, proxy_names):
    """What resource an assigned expression acquires, or None."""
    if not isinstance(value, ast.Call):
        return None
    fn = value.func
    if isinstance(fn, ast.Attribute):
        if fn.attr == "acquire":
            return "lock"
        if fn.attr == "open":
            return "file"
        if fn.attr in ("socket", "create_connection") \
                and isinstance(fn.value, ast.Name) and fn.value.id == "socket":
            return "socket"
        if (
            isinstance(fn.value, ast.Name) and fn.value.id == "self"
            and fn.attr in proxy_names
        ):
            return "lock"
        return None
    if isinstance(fn, ast.Name) and fn.id == "open":
        return "file"
    return None


class _Resource:
    __slots__ = ("rid", "name", "kind", "node", "line", "dump")

    def __init__(self, rid, name, kind, node, line, dump=None):
        self.rid = rid
        self.name = name  # bound local name, or None for unbound acquires
        self.kind = kind
        self.node = node  # acquiring CFG node index
        self.line = line
        self.dump = dump  # spelled receiver (unbound acquires only)


def _bare_uses(expr, name):
    """Does *name* occur in *expr* outside attribute-receiver position?"""
    stack = [expr]
    while stack:
        node = stack.pop()
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == name
        ):
            continue  # `name.attr` — receiver use, not an escape
        if isinstance(node, ast.Name) and node.id == name:
            return True
        stack.extend(ast.iter_child_nodes(node))
    return False


def _check_function(source_file, func, class_name, proxies):
    if func.name == "__enter__":
        return []
    proxy_names = proxies.get(class_name, set()) if class_name else set()
    graph = cfglib.build_cfg(func)

    resources = []
    for node in graph.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                and isinstance(stmt.targets[0], ast.Name):
            kind = _acquisition_kind(stmt.value, proxy_names)
            if kind:
                resources.append(_Resource(
                    len(resources), stmt.targets[0].id, kind,
                    node.index, stmt.lineno))
        elif isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Call):
            call = stmt.value
            if isinstance(call.func, ast.Attribute) \
                    and call.func.attr == "acquire":
                resources.append(_Resource(
                    len(resources), None, "lock", node.index, stmt.lineno,
                    dump=ast.dump(call.func.value)))
    if not resources:
        return []

    gen = {}
    kill = {}
    for node in graph.nodes:
        stmt = node.stmt
        if stmt is None:
            continue
        exprs = cfglib.evaluated_exprs(stmt)
        calls = cfglib.calls_at(stmt)
        for res in resources:
            if node.index == res.node:
                gen.setdefault(node.index, set()).add(res.rid)
                # a rebinding acquisition kills the previous generation
                kill.setdefault(node.index, set()).add(res.rid)
                continue
            if res.name is not None:
                released = any(
                    isinstance(c.func, ast.Attribute)
                    and c.func.attr in _RELEASE_ATTRS
                    and isinstance(c.func.value, ast.Name)
                    and c.func.value.id == res.name
                    for c in calls
                )
                if released or any(_bare_uses(e, res.name) for e in exprs):
                    kill.setdefault(node.index, set()).add(res.rid)
            else:
                if any(
                    isinstance(c.func, ast.Attribute)
                    and c.func.attr in _RELEASE_ATTRS
                    and ast.dump(c.func.value) == res.dump
                    for c in calls
                ):
                    kill.setdefault(node.index, set()).add(res.rid)

    def transfer(node, fact, kind):
        out = fact - frozenset(kill.get(node, ()))
        if kind != cfglib.EXC:
            out = out | frozenset(gen.get(node, ()))
        return out

    facts = dataflow.solve_forward(graph, frozenset(), transfer)
    leaked_exit = facts.get(graph.exit, frozenset())
    leaked_raise = facts.get(graph.raise_exit, frozenset())

    qualnames = _qualnames(source_file.tree)
    owner = qualnames.get(func, func.name)
    findings = []
    for res in resources:
        what = res.name or "it"
        where = None
        if res.rid in leaked_exit:
            where = "a normal path"
        elif res.rid in leaked_raise:
            where = "an exception path (release in a finally, or use with)"
        if where is None:
            continue
        findings.append(Finding(
            RULE, source_file.relative, res.line,
            f"{owner} acquires a {res.kind} but {what} may not be "
            f"released on {where}",
        ))
    return findings


def check_release_on_all_paths(files):
    findings = []

    def visit(source_file, proxies, node, class_name):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                findings.extend(_check_function(
                    source_file, child, class_name, proxies))
                # nested defs have no class receiver
                visit(source_file, proxies, child, None)
            elif isinstance(child, ast.ClassDef):
                visit(source_file, proxies, child, child.name)
            else:
                visit(source_file, proxies, child, class_name)

    for source_file in files:
        tree = source_file.tree
        visit(source_file, _proxy_acquirers(tree), tree, None)
    return findings

"""The ``# guarded-by`` annotation convention and its checker.

Convention
----------

A field that must only be touched while holding a lock is annotated on
its ``__init__`` assignment::

    self.queries_translated = 0  # guarded-by: _mutation_lock

The named lock is another attribute of the same object (a
``threading.Lock`` / ``Condition`` or compatible context manager).  The
checker then walks every other method of the class and reports reads or
writes of ``self.<field>`` that are not lexically inside a
``with self.<lock>:`` block.

Helpers that are *called with the lock already held* declare it on their
``def`` line::

    def _fsync_locked(self):  # holds: _lock

which treats the whole body as guarded.  ``__init__`` itself is exempt
(construction is single-threaded by definition), as is any access
suppressed with ``# reprolint: disable=guarded-by``.

Scope and honesty
-----------------

The checker is intentionally *intra-class*: only ``self.<field>``
accesses inside the defining class are checked.  Cross-object accesses
(``store.queries_translated`` from a test) and string-based access
(``getattr``/``setattr``) are invisible to it — the annotation documents
the locking contract; the checker enforces the contract where the AST
can see it.  Nested functions and lambdas inherit the held-lock set of
their definition site (true for the ``Condition.wait_for`` lambdas this
codebase uses; a closure stashed and called later would evade this).
"""

from __future__ import annotations

import ast
import re

from repro.analysis.core import Finding

GUARDED_BY = re.compile(r"#\s*guarded-by:\s*([A-Za-z_][A-Za-z0-9_]*)")
HOLDS = re.compile(r"#\s*holds:\s*([A-Za-z_][A-Za-z0-9_, ]*)")


def _self_attr(node):
    """``self.X`` -> ``'X'`` (else None)."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _annotation_on(source_file, node, pattern):
    """First *pattern* match in the comments spanning *node*'s lines.

    A comment-only line immediately above the statement also counts, for
    assignments too long to annotate inline.
    """
    last = getattr(node, "end_lineno", node.lineno) or node.lineno
    first = node.lineno
    if first > 1:
        above = source_file.lines[first - 2].strip()
        if above.startswith("#"):
            first -= 1
    for number in range(first, last + 1):
        match = pattern.search(source_file.line_comment(number))
        if match:
            return match
    return None


def guarded_fields(source_file, class_node):
    """``{field: lock}`` from ``# guarded-by`` annotations in ``__init__``."""
    fields = {}
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "__init__":
            for statement in ast.walk(item):
                if isinstance(statement, (ast.Assign, ast.AnnAssign)):
                    targets = (
                        statement.targets
                        if isinstance(statement, ast.Assign)
                        else [statement.target]
                    )
                    names = [_self_attr(t) for t in targets]
                    match = _annotation_on(source_file, statement, GUARDED_BY)
                    if match:
                        for name in names:
                            if name:
                                fields[name] = match.group(1)
    return fields


def held_locks_declared(source_file, function_node):
    """Locks a ``# holds:`` marker on the ``def`` line declares held."""
    comment = source_file.line_comment(function_node.lineno)
    match = HOLDS.search(comment)
    if not match:
        return set()
    return {name.strip() for name in match.group(1).split(",") if name.strip()}


def check_guarded_by(files):
    """Fields annotated ``# guarded-by: <lock>`` must be accessed inside
    ``with self.<lock>:`` (or a ``# holds: <lock>`` helper)."""
    findings = []
    for source_file in files:
        for class_node in source_file.tree.body:
            if not isinstance(class_node, ast.ClassDef):
                continue
            fields = guarded_fields(source_file, class_node)
            if not fields:
                continue
            for method in class_node.body:
                if not isinstance(method,
                                  (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if method.name == "__init__":
                    continue
                declared = held_locks_declared(source_file, method)
                findings.extend(_check_method(
                    source_file, class_node, method, fields, declared))
    return findings


def check_guarded_by_interproc(files):
    """The caller side of the ``# holds:`` contract.

    :func:`check_guarded_by` trusts a ``# holds: <lock>`` declaration
    and treats the helper body as guarded; nothing checked that callers
    *live up to* it.  This rule walks every same-class ``self.helper()``
    call site and requires the declared locks to be held there —
    lexically (``with self.<lock>:``), by the caller's own ``# holds:``
    declaration, or by *inference*: an undeclared method called from
    several places inherits the intersection of its callers' held sets
    (narrowing fixpoint from TOP), so a helper only ever reached with
    the lock held passes its context through without annotation.
    ``__init__`` call sites are exempt (construction is
    single-threaded).
    """
    findings = []
    for source_file in files:
        for class_node in source_file.tree.body:
            if isinstance(class_node, ast.ClassDef):
                findings.extend(
                    _check_class_interproc(source_file, class_node))
    return findings


def _self_call_sites(method, declared):
    """``(callee, lexically-held, line)`` for every self-call in *method*."""
    sites = []

    def visit(node, held):
        if isinstance(node, ast.With):
            acquired = set()
            for item in node.items:
                name = _self_attr(item.context_expr)
                if name:
                    acquired.add(name)
                visit(item.context_expr, held)
            for child in node.body:
                visit(child, held | acquired)
            return
        if isinstance(node, ast.Call):
            fn = node.func
            if (
                isinstance(fn, ast.Attribute)
                and isinstance(fn.value, ast.Name)
                and fn.value.id == "self"
            ):
                sites.append((fn.attr, frozenset(held), node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for statement in method.body:
        visit(statement, set(declared))
    return sites


def _check_class_interproc(source_file, class_node):
    methods = {
        item.name: item
        for item in class_node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    declared = {
        name: held_locks_declared(source_file, node)
        for name, node in methods.items()
    }
    if not any(declared.values()):
        return []

    call_sites = {
        name: _self_call_sites(node, declared[name])
        for name, node in methods.items()
        if name != "__init__"
    }

    # infer held sets for undeclared methods: intersection over caller
    # contexts, narrowing from TOP (None) until stable
    inferred = {
        name: None for name in methods
        if not declared[name]
        and any(callee == name
                for sites in call_sites.values()
                for callee, _held, _line in sites)
    }
    for _ in range(len(methods) + 1):
        changed = False
        for name in inferred:
            incoming = None
            for caller, sites in call_sites.items():
                effective_caller = declared[caller] | (
                    inferred.get(caller) or set())
                for callee, held, _line in sites:
                    if callee != name:
                        continue
                    at_site = held | effective_caller
                    incoming = at_site if incoming is None \
                        else incoming & at_site
            incoming = set() if incoming is None else incoming
            if inferred[name] is None or incoming != inferred[name]:
                if inferred[name] is None or incoming < inferred[name]:
                    inferred[name] = incoming
                    changed = True
        if not changed:
            break

    findings = []
    for caller, sites in call_sites.items():
        effective_caller = declared[caller] | (inferred.get(caller) or set())
        for callee, held, line in sites:
            required = declared.get(callee) or set()
            missing = required - held - effective_caller
            if missing:
                findings.append(Finding(
                    "guarded-by-interproc",
                    source_file.relative,
                    line,
                    f"{class_node.name}.{caller} calls {callee} "
                    f"(# holds: {', '.join(sorted(required))}) without "
                    f"holding {', '.join(sorted(missing))}",
                ))
    return findings


def _check_method(source_file, class_node, method, fields, held):
    findings = []

    def visit(node, held):
        if isinstance(node, ast.With):
            acquired = set()
            for item in node.items:
                name = _self_attr(item.context_expr)
                if name:
                    acquired.add(name)
                visit(item.context_expr, held)
                if item.optional_vars is not None:
                    visit(item.optional_vars, held)
            for child in node.body:
                visit(child, held | acquired)
            return
        if isinstance(node, ast.Attribute):
            name = _self_attr(node)
            if name in fields and fields[name] not in held:
                findings.append(Finding(
                    "guarded-by",
                    source_file.relative,
                    node.lineno,
                    f"field '{name}' is guarded-by '{fields[name]}' but "
                    f"{class_node.name}.{method.name} accesses it without "
                    f"holding the lock",
                ))
        for child in ast.iter_child_nodes(node):
            visit(child, held)

    for statement in method.body:
        visit(statement, set(held))
    return findings

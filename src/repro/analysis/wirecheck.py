"""Error-code conformance across the wire-protocol boundary.

The serving tier speaks typed errors: ``server/protocol.py`` declares
the code constants (``NAME = "NAME"``), partitions them into
``RETRYABLE_CODES`` / ``NON_RETRYABLE_CODES``, and every server /
sharding-coordinator emission plus the client's retry classifier keys
off them.  The contract has four ways to rot, each a check here:

* a code is **declared but unclassified** (or classified twice, or a
  classification names an undeclared code) — the client's
  ``retryable`` decision for it would be accidental;
* an emission site (``WireError(CODE, ...)``, a ``WireError`` subclass
  constructor, ``error_payload(CODE, ...)``) uses a code the protocol
  never **declared** — the client sees an unknown code;
* a declared code is **dead**: never referenced outside its definition
  and the classification sets by any server/sharding/client module;
* a scatter-gather **relay flattens** the original code: an ``except
  <WireError-family>`` handler that raises a fresh wire error with a
  fixed code instead of propagating ``exc.code``.

Pure AST — no imports of the checked modules — so the same rule runs
over regression fixtures.  Scope: files under ``server/`` or
``sharding/`` plus ``client.py``; silent when no ``server/protocol.py``
is in the linted set.
"""

from __future__ import annotations

import ast

from repro.analysis.core import Finding

RULE = "error-code-conformance"

_CLASSIFICATION_SETS = ("RETRYABLE_CODES", "NON_RETRYABLE_CODES")


def _in_scope(relative):
    slashed = "/" + relative
    return (
        "/server/" in slashed
        or "/sharding/" in slashed
        or relative.endswith("client.py")
    )


def _frozenset_members(value):
    """Names inside ``frozenset({A, B, ...})`` (None when not that shape).

    A bare ``frozenset()`` is a declared-but-empty set, not a miss.
    """
    if not (
        isinstance(value, ast.Call)
        and isinstance(value.func, ast.Name)
        and value.func.id == "frozenset"
        and len(value.args) <= 1
    ):
        return None
    if not value.args:
        return []
    container = value.args[0]
    if not isinstance(container, (ast.Set, ast.Tuple, ast.List)):
        return None
    return [e.id for e in container.elts if isinstance(e, ast.Name)]


def _wire_classes(files):
    """``WireError`` plus every class in *files* deriving from one."""
    bases_of = {}
    for source_file in files:
        for node in ast.walk(source_file.tree):
            if isinstance(node, ast.ClassDef):
                names = set()
                for base in node.bases:
                    if isinstance(base, ast.Name):
                        names.add(base.id)
                    elif isinstance(base, ast.Attribute):
                        names.add(base.attr)
                bases_of[node.name] = names
    wire = {"WireError"}
    for _ in range(len(bases_of) + 1):
        grown = {
            name for name, bases in bases_of.items()
            if bases & wire and name not in wire
        }
        if not grown:
            break
        wire |= grown
    return wire


def _first_code_arg(call):
    """``(kind, value)`` of a call's first code argument, or None.

    kind 'name' for an uppercase Name, 'literal' for a string constant;
    anything dynamic (a variable, ``exc.code``) returns None — the
    checker only judges what it can read.
    """
    arg = None
    if call.args:
        arg = call.args[0]
    else:
        for keyword in call.keywords:
            if keyword.arg == "code":
                arg = keyword.value
                break
    if isinstance(arg, ast.Name) and arg.id.isupper():
        return ("name", arg.id)
    if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
        return ("literal", arg.value)
    return None


def check_error_code_conformance(files):
    protocol = None
    for source_file in files:
        if source_file.relative.endswith("server/protocol.py"):
            protocol = source_file
            break
    if protocol is None:
        return []
    findings = []

    declared = {}        # NAME -> (value, lineno)
    classification = {}  # set name -> (members, span)
    for node in protocol.tree.body:
        if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)):
            continue
        name = node.targets[0].id
        if name in _CLASSIFICATION_SETS:
            members = _frozenset_members(node.value)
            if members is not None:
                last = getattr(node, "end_lineno", node.lineno) or node.lineno
                classification[name] = (members, (node.lineno, last))
        elif name.isupper() and not name.startswith("_") \
                and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            declared[name] = (node.value.value, node.lineno)

    for set_name in _CLASSIFICATION_SETS:
        if set_name not in classification:
            findings.append(Finding(
                RULE, protocol.relative, 1,
                f"protocol.py does not define {set_name} — every declared "
                f"error code must be classified retryable or not",
            ))
    retryable = set(classification.get("RETRYABLE_CODES", ((), None))[0])
    non_retryable = set(
        classification.get("NON_RETRYABLE_CODES", ((), None))[0])

    for name in sorted(retryable | non_retryable):
        if name not in declared:
            findings.append(Finding(
                RULE, protocol.relative, 1,
                f"classification sets reference undeclared code {name}",
            ))
    for name in sorted(retryable & non_retryable):
        findings.append(Finding(
            RULE, protocol.relative, declared.get(name, ("", 1))[1],
            f"code {name} is classified both retryable and non-retryable",
        ))
    if all(s in classification for s in _CLASSIFICATION_SETS):
        for name, (_value, line) in sorted(declared.items()):
            if name not in retryable and name not in non_retryable:
                findings.append(Finding(
                    RULE, protocol.relative, line,
                    f"declared code {name} is in neither RETRYABLE_CODES "
                    f"nor NON_RETRYABLE_CODES",
                ))

    scope = [f for f in files if _in_scope(f.relative)]
    wire = _wire_classes(scope)
    excluded_spans = [span for _members, span in classification.values()]

    def _counts_as_use(source_file, node, name, value):
        line = getattr(node, "lineno", 0)
        if source_file is protocol:
            if line == declared[name][1]:
                return False
            if any(first <= line <= last for first, last in excluded_spans):
                return False
        if isinstance(node, ast.Name):
            return node.id == name and isinstance(node.ctx, ast.Load)
        if isinstance(node, ast.Constant):
            return node.value == value
        return False

    for name, (value, line) in sorted(declared.items()):
        used = any(
            _counts_as_use(source_file, node, name, value)
            for source_file in scope
            for node in ast.walk(source_file.tree)
        )
        if not used:
            findings.append(Finding(
                RULE, protocol.relative, line,
                f"declared code {name} is never emitted or matched by any "
                f"server/sharding/client module",
            ))

    declared_values = {value for value, _line in declared.values()}
    for source_file in scope:
        for node in ast.walk(source_file.tree):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            emits = (
                isinstance(fn, ast.Name)
                and (fn.id in wire or fn.id == "error_payload")
            )
            if not emits:
                continue
            code = _first_code_arg(node)
            if code is None:
                continue
            kind, spelled = code
            known = spelled in declared if kind == "name" \
                else spelled in declared_values
            if not known:
                findings.append(Finding(
                    RULE, source_file.relative, node.lineno,
                    f"error code {spelled!r} is not declared in "
                    f"server/protocol.py",
                ))

        for handler in ast.walk(source_file.tree):
            if not isinstance(handler, ast.ExceptHandler) \
                    or handler.type is None:
                continue
            caught = handler.type.elts \
                if isinstance(handler.type, ast.Tuple) else [handler.type]
            if not any(isinstance(t, ast.Name) and t.id in wire
                       for t in caught):
                continue
            for stmt in ast.walk(handler):
                if not (isinstance(stmt, ast.Raise)
                        and isinstance(stmt.exc, ast.Call)
                        and isinstance(stmt.exc.func, ast.Name)
                        and stmt.exc.func.id in wire):
                    continue
                code = _first_code_arg(stmt.exc)
                if code is None:
                    continue  # propagates exc.code or similar — fine
                findings.append(Finding(
                    RULE, source_file.relative, stmt.lineno,
                    f"relay catches a wire error but raises "
                    f"{stmt.exc.func.id} with fixed code {code[1]} — "
                    f"propagate the original exc.code",
                ))
    return findings

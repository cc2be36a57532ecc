"""Static deadlock detection: the lock-acquisition graph.

Two threads deadlock when they acquire the same locks in opposite
orders.  This rule extracts a *may-acquire-while-holding* graph from the
whole package and reports any cycle in it:

* **nodes** are locks, identified as ``Class.attr`` for every attribute
  assigned a ``threading.Lock()`` / ``RLock()`` / ``Condition()`` (and
  for function-local lock variables, ``path:name``).  The table locks
  are no node: ``LockManager`` grants a statement's whole set at once
  under its one condition, which is an ordinary node;
* **edges** ``A -> B`` mean: some code path acquires B (directly via
  ``with``, or transitively through calls) while holding A.

Call resolution is deliberately conservative: ``self.method()`` resolves
within the class, ``self.attr.method()`` / ``name.method()`` resolve
only when the receiver was somewhere assigned ``ClassName(...)`` for a
class defined in the linted tree (and unambiguously so), and bare
``name()`` resolves to a function in the same module.  Unresolvable
calls contribute no edges — the graph can miss edges through dynamic
dispatch, but an edge it *does* report corresponds to a concrete code
path.
"""

from __future__ import annotations

import ast

from repro.analysis.concurrency import _self_attr
from repro.analysis.core import Finding

_LOCK_FACTORIES = {"Lock", "RLock", "Condition"}


def _is_lock_factory(call):
    """``threading.Lock()`` / ``Lock()`` (imported name) and friends."""
    if not isinstance(call, ast.Call):
        return False
    fn = call.func
    if isinstance(fn, ast.Attribute):
        return fn.attr in _LOCK_FACTORIES and isinstance(fn.value, ast.Name) \
            and fn.value.id == "threading"
    return isinstance(fn, ast.Name) and fn.id in _LOCK_FACTORIES


def _called_class(call):
    """``ClassName(...)`` -> ``'ClassName'`` (else None)."""
    if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
        return call.func.id
    return None


class _Function:
    """One analyzable function with its acquisition/call summary."""

    __slots__ = ("key", "node", "source_file", "class_name",
                 "direct", "calls", "may_acquire")

    def __init__(self, key, node, source_file, class_name):
        self.key = key
        self.node = node
        self.source_file = source_file
        self.class_name = class_name
        self.direct = set()   # lock nodes acquired anywhere in the body
        self.calls = set()    # resolved callee keys
        self.may_acquire = set()


class Package:
    """Package-wide indexes the extractor resolves against.

    ``functions`` maps ``Class.method`` / ``relpath:func`` keys to
    :class:`_Function` entries and :meth:`resolve_call` performs the
    conservative name resolution described in the module docstring.
    """

    def __init__(self, files):
        self.functions = {}        # key -> _Function
        self.class_locks = {}      # class name -> {attr -> lock node}
        self.class_methods = {}    # class name -> {method -> key}
        self.module_functions = {} # relpath -> {name -> key}
        self.attr_owner = {}       # attr/var name -> class name (unambiguous)
        self._ambiguous = set()
        self._index(files)

    def _index(self, files):
        for source_file in files:
            module = self.module_functions.setdefault(source_file.relative, {})
            for node in source_file.tree.body:
                if isinstance(node, ast.FunctionDef):
                    key = f"{source_file.relative}:{node.name}"
                    module[node.name] = key
                    self.functions[key] = _Function(
                        key, node, source_file, None)
                elif isinstance(node, ast.ClassDef):
                    self._index_class(source_file, node)
        # second sweep: receiver map from every `x = ClassName(...)`
        for source_file in files:
            for node in ast.walk(source_file.tree):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    self._note_receiver(node.targets[0], node.value)

    def _index_class(self, source_file, class_node):
        methods = self.class_methods.setdefault(class_node.name, {})
        locks = self.class_locks.setdefault(class_node.name, {})
        for item in class_node.body:
            if not isinstance(item, ast.FunctionDef):
                continue
            key = f"{class_node.name}.{item.name}"
            methods[item.name] = key
            self.functions[key] = _Function(
                key, item, source_file, class_node.name)
            for statement in ast.walk(item):
                if isinstance(statement, ast.Assign):
                    for target in statement.targets:
                        attr = _self_attr(target)
                        if attr and _is_lock_factory(statement.value):
                            locks[attr] = f"{class_node.name}.{attr}"

    def _note_receiver(self, target, value):
        class_name = _called_class(value)
        if class_name not in self.class_methods:
            return
        name = _self_attr(target) if isinstance(target, ast.Attribute) \
            else (target.id if isinstance(target, ast.Name) else None)
        if not name or name in self._ambiguous:
            return
        existing = self.attr_owner.get(name)
        if existing is not None and existing != class_name:
            del self.attr_owner[name]
            self._ambiguous.add(name)
        elif existing is None:
            self.attr_owner[name] = class_name

    # --- resolution -------------------------------------------------

    def resolve_call(self, function, call):
        """A Call node -> callee key, or None when unresolvable."""
        fn = call.func
        if isinstance(fn, ast.Name):
            module = self.module_functions.get(function.source_file.relative, {})
            return module.get(fn.id)
        if not isinstance(fn, ast.Attribute):
            return None
        receiver = fn.value
        if isinstance(receiver, ast.Name) and receiver.id == "self":
            if function.class_name:
                return self.class_methods.get(
                    function.class_name, {}).get(fn.attr)
            return None
        owner = None
        if isinstance(receiver, ast.Name):
            owner = self.attr_owner.get(receiver.id)
        elif isinstance(receiver, ast.Attribute):
            attr = _self_attr(receiver)
            owner = self.attr_owner.get(attr) if attr else None
        if owner:
            return self.class_methods.get(owner, {}).get(fn.attr)
        return None

    def lock_node(self, function, expr):
        """The lock a ``with <expr>:`` acquires, or None."""
        if function.class_name:
            attr = _self_attr(expr)
            if attr:
                return self.class_locks.get(
                    function.class_name, {}).get(attr)
        if isinstance(expr, ast.Name):
            return self._local_lock(function, expr.id)
        return None

    def _local_lock(self, function, name):
        for statement in ast.walk(function.node):
            if isinstance(statement, ast.Assign) \
                    and _is_lock_factory(statement.value):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        return f"{function.source_file.relative}:{name}"
        return None


def _call_acquires(package, function, call):
    """Locks a call may acquire: its callee's summary."""
    callee = package.resolve_call(function, call)
    if callee is None:
        return set()
    return package.functions[callee].may_acquire


def build_graph(files):
    """``(package, edges)`` where edges maps (A, B) -> example (path, line)."""
    package = Package(files)

    # summaries: direct acquisitions + resolved calls, then a fixpoint
    for function in package.functions.values():
        for node in ast.walk(function.node):
            if isinstance(node, ast.With):
                for item in node.items:
                    lock = package.lock_node(function, item.context_expr)
                    if lock:
                        function.direct.add(lock)
            elif isinstance(node, ast.Call):
                callee = package.resolve_call(function, node)
                if callee is not None:
                    function.calls.add(callee)
        function.may_acquire = set(function.direct)

    changed = True
    while changed:
        changed = False
        for function in package.functions.values():
            for callee in function.calls:
                extra = package.functions[callee].may_acquire \
                    - function.may_acquire
                if extra:
                    function.may_acquire |= extra
                    changed = True

    # edges: B acquired (directly or through a call) while A is held
    edges = {}

    def note(held, acquired, source_file, line):
        for a in held:
            for b in acquired:
                edges.setdefault((a, b), (source_file.relative, line))

    def walk(function, node, held):
        if isinstance(node, ast.With):
            acquired = set()
            for item in node.items:
                walk(function, item.context_expr, held)
                lock = package.lock_node(function, item.context_expr)
                if lock:
                    acquired.add(lock)
            note(held, acquired, function.source_file, node.lineno)
            for child in node.body:
                walk(function, child, held | acquired)
            return
        if isinstance(node, ast.Call):
            note(held, _call_acquires(package, function, node),
                 function.source_file, node.lineno)
        for child in ast.iter_child_nodes(node):
            walk(function, child, held)

    for function in package.functions.values():
        for statement in function.node.body:
            walk(function, statement, set())
    return package, edges


def _cycles(edges):
    """Strongly connected components with a cycle (Tarjan, iterative)."""
    graph = {}
    for (a, b) in edges:
        graph.setdefault(a, set()).add(b)
        graph.setdefault(b, set())
    index = {}
    lowlink = {}
    on_stack = set()
    stack = []
    components = []
    counter = [0]

    for root in sorted(graph):
        if root in index:
            continue
        work = [(root, iter(sorted(graph[root])))]
        index[root] = lowlink[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, successors = work[-1]
            advanced = False
            for successor in successors:
                if successor not in index:
                    index[successor] = lowlink[successor] = counter[0]
                    counter[0] += 1
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(sorted(graph[successor]))))
                    advanced = True
                    break
                if successor in on_stack:
                    lowlink[node] = min(lowlink[node], index[successor])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
            if lowlink[node] == index[node]:
                component = []
                while True:
                    member = stack.pop()
                    on_stack.discard(member)
                    component.append(member)
                    if member == node:
                        break
                if len(component) > 1 or (node, node) in edges:
                    components.append(sorted(component))
    return components


def check_lock_order(files):
    """The lock-acquisition graph must be acyclic (a cycle may deadlock)."""
    _, edges = build_graph(files)
    findings = []
    for component in _cycles(edges):
        members = set(component)
        involved = sorted(
            (a, b) for (a, b) in edges if a in members and b in members
        )
        detail = "; ".join(
            f"{a} -> {b} at {edges[(a, b)][0]}:{edges[(a, b)][1]}"
            for a, b in involved
        )
        path, line = edges[involved[0]]
        findings.append(Finding(
            "lock-order", path, line,
            f"potential lock-order cycle among {{{', '.join(component)}}}: "
            f"{detail}",
        ))
    return findings

"""The reprolint checks, driven over fixture snippets.

Each check gets a minimal offending snippet (finding expected) and a
compliant twin (no finding, from any check); the remaining tests cover
suppressions, parse errors, and the self-run asserting the real tree is
clean.  This module is the way to run the lint::

    PYTHONPATH=src python -m pytest tests/test_reprolint.py
"""

from __future__ import annotations

import pathlib
import textwrap

from repro.analysis import lint
from repro.analysis.core import collect_sources
from repro.analysis.lockgraph import build_graph

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


def lint_snippet(tmp_path, source):
    """Lint one dedented snippet with every check; returns findings."""
    path = tmp_path / "snippet.py"
    path.write_text(textwrap.dedent(source))
    return lint([path])


def rules_of(findings):
    return sorted({finding.rule for finding in findings})


# ---------------------------------------------------------------------------
# guarded-by
# ---------------------------------------------------------------------------

GUARDED_BAD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.counter = 0  # guarded-by: _lock

        def bump(self):
            self.counter += 1
"""

GUARDED_GOOD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.counter = 0  # guarded-by: _lock

        def bump(self):
            with self._lock:
                self.counter += 1
"""

GUARDED_HOLDS = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.counter = 0  # guarded-by: _lock

        def bump(self):
            with self._lock:
                self._bump_locked()

        def _bump_locked(self):  # holds: _lock
            self.counter += 1
"""

GUARDED_COMMENT_ABOVE = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            # guarded-by: _lock
            self.counter = 0

        def read(self):
            return self.counter
"""


def test_guarded_by_flags_unlocked_access(tmp_path):
    findings = lint_snippet(tmp_path, GUARDED_BAD)
    assert rules_of(findings) == ["guarded-by"]
    assert "Store.bump" in findings[0].message
    assert "_lock" in findings[0].message


def test_guarded_by_accepts_with_block(tmp_path):
    assert lint_snippet(tmp_path, GUARDED_GOOD) == []


def test_guarded_by_accepts_holds_helper(tmp_path):
    assert lint_snippet(tmp_path, GUARDED_HOLDS) == []


def test_guarded_by_reads_comment_above(tmp_path):
    findings = lint_snippet(tmp_path, GUARDED_COMMENT_ABOVE)
    assert rules_of(findings) == ["guarded-by"]
    assert "Store.read" in findings[0].message


def test_guarded_by_lambda_inherits_held_set(tmp_path):
    snippet = """
        import threading

        class RWL:
            def __init__(self):
                self._condition = threading.Condition()
                self._writer = False  # guarded-by: _condition

            def acquire(self):
                with self._condition:
                    self._condition.wait_for(lambda: not self._writer)
    """
    assert lint_snippet(tmp_path, snippet) == []


# ---------------------------------------------------------------------------
# lock-order
# ---------------------------------------------------------------------------

LOCK_CYCLE = """
    import threading

    class A:
        def __init__(self):
            self.lock_a = threading.Lock()
            self.lock_b = threading.Lock()

        def forward(self):
            with self.lock_a:
                with self.lock_b:
                    pass

        def backward(self):
            with self.lock_b:
                with self.lock_a:
                    pass
"""

LOCK_ORDERED = """
    import threading

    class A:
        def __init__(self):
            self.lock_a = threading.Lock()
            self.lock_b = threading.Lock()

        def forward(self):
            with self.lock_a:
                with self.lock_b:
                    pass

        def also_forward(self):
            with self.lock_a:
                with self.lock_b:
                    pass
"""

LOCK_CHAIN_VIA_CALL = """
    import threading

    class Wal:
        def __init__(self):
            self._lock = threading.Lock()

        def append(self):
            with self._lock:
                pass

    class Db:
        def __init__(self):
            self._guard = threading.Lock()
            self.log = Wal()

        def commit(self):
            with self._guard:
                self.log.append()
"""

LOCK_CYCLE_VIA_CALL = """
    import threading

    class Wal:
        def __init__(self):
            self._lock = threading.Lock()

        def append(self):
            with self._lock:
                self.db.commit()

    class Db:
        def __init__(self):
            self._guard = threading.Lock()
            self.wal = Wal()

        def commit(self):
            with self._guard:
                self.wal.append()

    def make_db():
        db = Db()
        return db
"""


def test_lock_order_detects_cycle(tmp_path):
    findings = lint_snippet(tmp_path, LOCK_CYCLE)
    assert rules_of(findings) == ["lock-order"]
    assert "A.lock_a" in findings[0].message
    assert "A.lock_b" in findings[0].message


def test_lock_order_accepts_consistent_order(tmp_path):
    assert lint_snippet(tmp_path, LOCK_ORDERED) == []


def test_lock_order_follows_resolved_calls(tmp_path):
    # Db.commit holds _guard and calls Wal.append (receiver resolved via
    # the `self.log = Wal()` assignment): Db._guard -> Wal._lock, acyclic.
    assert lint_snippet(tmp_path, LOCK_CHAIN_VIA_CALL) == []
    # Close the loop — Wal.append calls back into Db.commit while holding
    # Wal._lock — and the transitive cycle must fire.
    findings = lint_snippet(tmp_path, LOCK_CYCLE_VIA_CALL)
    assert rules_of(findings) == ["lock-order"]
    assert "Wal._lock" in findings[0].message
    assert "Db._guard" in findings[0].message


# ---------------------------------------------------------------------------
# suppressions, parse errors
# ---------------------------------------------------------------------------

def test_suppression_silences_rule_on_line(tmp_path):
    snippet = GUARDED_BAD.replace(
        "self.counter += 1",
        "self.counter += 1  # reprolint: disable=guarded-by -- fixture")
    assert lint_snippet(tmp_path, snippet) == []


def test_suppression_is_rule_specific(tmp_path):
    snippet = GUARDED_BAD.replace(
        "self.counter += 1",
        "self.counter += 1  # reprolint: disable=lock-order")
    assert rules_of(lint_snippet(tmp_path, snippet)) == ["guarded-by"]


def test_suppression_of_unknown_rule_is_a_finding(tmp_path):
    """A suppression naming a rule no check reports (a deleted one, a
    typo) is flagged on its line, next to the finding it failed to
    silence."""
    snippet = GUARDED_BAD.replace(
        "self.counter += 1",
        "self.counter += 1  # reprolint: disable=wal-commit-reachability")
    findings = lint_snippet(tmp_path, snippet)
    assert rules_of(findings) == ["guarded-by", "unknown-suppression"]
    unknown = [f for f in findings if f.rule == "unknown-suppression"]
    assert "'wal-commit-reachability'" in unknown[0].message
    assert unknown[0].line == next(
        f.line for f in findings if f.rule == "guarded-by")


def test_parse_error_is_a_finding(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    assert rules_of(lint([path])) == ["parse-error"]


# ---------------------------------------------------------------------------
# the tree itself is clean
# ---------------------------------------------------------------------------

def test_self_run_src_repro_is_clean():
    """src/repro has zero unsuppressed findings."""
    findings = lint([REPO_ROOT / "src" / "repro"])
    assert findings == [], "\n".join(f.render() for f in findings)


#: every (held, acquired) pair of product locks: none, since no product
#: mutex is taken while another is held
PRODUCT_LOCK_EDGES = set()


def test_self_run_product_locks_are_leaves():
    """The may-acquire-while-holding graph of src/repro has exactly the
    edges listed above, so `lock-order` has nothing to order today."""
    files, errors = collect_sources([REPO_ROOT / "src" / "repro"])
    assert errors == []
    __, edges = build_graph(files)
    added = {
        f"{held} -> {acquired} ({path}:{line})"
        for (held, acquired), (path, line) in edges.items()
        if (held, acquired) not in PRODUCT_LOCK_EDGES
    }
    assert not added, (
        "a lock is now taken while another is held: list each new edge in "
        "PRODUCT_LOCK_EDGES and confirm the graph stays acyclic "
        "(the lock-order rule fails on a cycle):\n" + "\n".join(sorted(added))
    )
    assert set(edges) == PRODUCT_LOCK_EDGES


# ---------------------------------------------------------------------------
# error-code-conformance
# ---------------------------------------------------------------------------

def lint_protocol_tree(tmp_path, protocol_source, extra=None):
    """Lay out a miniature server/ package and lint it whole."""
    server = tmp_path / "server"
    server.mkdir()
    paths = [server / "protocol.py"]
    paths[0].write_text(textwrap.dedent(protocol_source))
    for name, source in (extra or {}).items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
        paths.append(path)
    return lint(paths)


WIRE_OK = """
    GOOD_ERROR = "GOOD_ERROR"
    OTHER_ERROR = "OTHER_ERROR"

    RETRYABLE_CODES = frozenset({GOOD_ERROR})
    NON_RETRYABLE_CODES = frozenset({OTHER_ERROR})

    class WireError(Exception):
        def __init__(self, code, message):
            self.code = code

    def error_payload(code, message):
        return {"code": code, "retryable": code in RETRYABLE_CODES}

    def fail():
        raise WireError(GOOD_ERROR, "x")

    def fail_other():
        raise WireError(OTHER_ERROR, "x")
"""

WIRE_UNCLASSIFIED = """
    GOOD_ERROR = "GOOD_ERROR"
    LIMBO_ERROR = "LIMBO_ERROR"

    RETRYABLE_CODES = frozenset({GOOD_ERROR})
    NON_RETRYABLE_CODES = frozenset()

    class WireError(Exception):
        def __init__(self, code, message):
            self.code = code

    def fail():
        raise WireError(GOOD_ERROR, "x")

    def fail_limbo():
        raise WireError(LIMBO_ERROR, "x")
"""

WIRE_UNKNOWN_EMISSION = """
    GOOD_ERROR = "GOOD_ERROR"

    RETRYABLE_CODES = frozenset({GOOD_ERROR})
    NON_RETRYABLE_CODES = frozenset()

    class WireError(Exception):
        def __init__(self, code, message):
            self.code = code

    def fail():
        raise WireError("MADE_UP_CODE", "x")

    def ok():
        raise WireError(GOOD_ERROR, "x")
"""


def test_wirecheck_accepts_conformant_protocol(tmp_path):
    assert lint_protocol_tree(tmp_path, WIRE_OK) == []


def test_wirecheck_flags_unclassified_code(tmp_path):
    findings = lint_protocol_tree(tmp_path, WIRE_UNCLASSIFIED)
    assert any("LIMBO_ERROR" in f.message and "neither" in f.message
               for f in findings)


def test_wirecheck_flags_unknown_code_spelling(tmp_path):
    findings = lint_protocol_tree(tmp_path, WIRE_UNKNOWN_EMISSION)
    assert any("MADE_UP_CODE" in f.message for f in findings)


def test_wirecheck_flags_dead_code_constant(tmp_path):
    dead = WIRE_OK.replace('def fail_other():\n        '
                           'raise WireError(OTHER_ERROR, "x")\n',
                           'def fail_other():\n        return None\n')
    findings = lint_protocol_tree(tmp_path, dead)
    assert any("OTHER_ERROR" in f.message and "never" in f.message
               for f in findings)


def test_wirecheck_silent_without_protocol_module(tmp_path):
    # fixture trees (and this repo's tests/) have no server/protocol.py
    findings = lint_snippet(tmp_path, "X = 1\n")
    assert findings == []


# ---------------------------------------------------------------------------
# guarded-by-interproc
# ---------------------------------------------------------------------------

INTERPROC_BAD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.counter = 0  # guarded-by: _lock

        def outer(self):
            self._bump_locked()

        def _bump_locked(self):  # holds: _lock
            self.counter += 1
"""

INTERPROC_GOOD = """
    import threading

    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.counter = 0  # guarded-by: _lock

        def outer(self):
            with self._lock:
                self._step()

        def _step(self):
            self._bump_locked()

        def _bump_locked(self):  # holds: _lock
            self.counter += 1
"""


def test_interproc_flags_unlocked_call_into_holds_method(tmp_path):
    findings = lint_snippet(tmp_path, INTERPROC_BAD)
    assert rules_of(findings) == ["guarded-by-interproc"]
    assert "Store.outer->Store._bump_locked" in findings[0].message \
        or "_bump_locked" in findings[0].message


def test_interproc_infers_locks_through_undeclared_helper(tmp_path):
    assert lint_snippet(tmp_path, INTERPROC_GOOD) == []

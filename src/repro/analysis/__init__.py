"""reprolint: static checks of SQLGraph's locking invariants and wire codes.

Four checks, each a function from the parsed files to findings of one
rule:

* :mod:`repro.analysis.concurrency` — ``guarded-by`` (fields annotated
  ``# guarded-by: <lock>`` are only touched under that lock) and
  ``guarded-by-interproc`` (callers of ``# holds: <lock>`` helpers hold
  the lock);
* :mod:`repro.analysis.lockgraph` — ``lock-order``: the package-wide
  lock-acquisition graph is acyclic;
* :mod:`repro.analysis.wirecheck` — ``error-code-conformance``: wire
  error codes stay declared, classified and relayed intact.

A ``# reprolint: disable=`` comment naming a rule none of them emits is
itself an ``unknown-suppression`` finding, so a deleted rule cannot
leave its suppressions behind.  ``tests/test_reprolint.py`` runs
:func:`lint` over ``src/repro``; see docs/ANALYSIS.md.
"""

from repro.analysis.concurrency import (
    check_guarded_by,
    check_guarded_by_interproc,
)
from repro.analysis.core import Finding, collect_sources
from repro.analysis.lockgraph import check_lock_order
from repro.analysis.wirecheck import RULE as WIRE_RULE
from repro.analysis.wirecheck import check_error_code_conformance

#: ``(rule, check)``: each check reports findings of its one rule
CHECKS = (
    ("guarded-by", check_guarded_by),
    ("guarded-by-interproc", check_guarded_by_interproc),
    ("lock-order", check_lock_order),
    (WIRE_RULE, check_error_code_conformance),
)

__all__ = ["CHECKS", "Finding", "lint"]


def lint(paths):
    """Run every check over the ``.py`` files under *paths*.

    Returns the unsuppressed findings sorted by location; an empty list
    means the tree is clean.
    """
    files, findings = collect_sources(paths)
    known = {rule for rule, __ in CHECKS}
    for source_file in files:
        for line, names in source_file.suppressions.items():
            findings.extend(
                Finding(
                    "unknown-suppression", source_file.relative, line,
                    f"suppression names {name!r}, a rule no check reports",
                )
                for name in sorted(names - known)
            )
    by_path = {source_file.relative: source_file for source_file in files}
    for __, check in CHECKS:
        for finding in check(files):
            source_file = by_path.get(finding.path)
            if source_file is None \
                    or not source_file.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings

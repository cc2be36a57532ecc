"""reprolint: static checks of SQLGraph's locking and durability invariants.

Six checks, each a function from the parsed files to findings:

* :mod:`repro.analysis.concurrency` — ``guarded-by`` (fields annotated
  ``# guarded-by: <lock>`` are only touched under that lock) and
  ``guarded-by-interproc`` (callers of ``# holds: <lock>`` helpers hold
  the lock);
* :mod:`repro.analysis.lockgraph` — ``lock-order``: the package-wide
  lock-acquisition graph is acyclic;
* :mod:`repro.analysis.release` — ``release-on-all-paths``: locks,
  sockets and files acquired outside ``with`` are released on every
  path, exception edges included;
* :mod:`repro.analysis.walflow` — ``wal-commit-reachability``: every
  autocommit WAL append reaches a commit point;
* :mod:`repro.analysis.wirecheck` — ``error-code-conformance``: wire
  error codes stay declared, classified and relayed intact.

:mod:`repro.analysis.cfg` and :mod:`repro.analysis.dataflow` are the
per-function control-flow graphs and path/dataflow queries the
flow-sensitive checks run on.  ``tests/test_reprolint.py`` runs
:func:`lint` over ``src/repro``; see docs/ANALYSIS.md.
"""

from repro.analysis.concurrency import (
    check_guarded_by,
    check_guarded_by_interproc,
)
from repro.analysis.core import Finding, collect_sources
from repro.analysis.lockgraph import check_lock_order
from repro.analysis.release import check_release_on_all_paths
from repro.analysis.walflow import check_wal_commit_reachability
from repro.analysis.wirecheck import check_error_code_conformance

CHECKS = (
    check_guarded_by,
    check_guarded_by_interproc,
    check_lock_order,
    check_release_on_all_paths,
    check_wal_commit_reachability,
    check_error_code_conformance,
)

__all__ = ["CHECKS", "Finding", "lint"]


def lint(paths):
    """Run every check over the ``.py`` files under *paths*.

    Returns the unsuppressed findings sorted by location; an empty list
    means the tree is clean.
    """
    files, findings = collect_sources(paths)
    by_path = {source_file.relative: source_file for source_file in files}
    for check in CHECKS:
        for finding in check(files):
            source_file = by_path.get(finding.path)
            if source_file is None \
                    or not source_file.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.rule))
    return findings

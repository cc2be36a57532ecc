"""reprolint: static analysis enforcing SQLGraph's cross-layer invariants.

PRs 2-4 layered a plan cache, a WAL and a thread-per-session server over
the paper's hybrid schema; each added invariants that live in comments
and tribal knowledge.  This package machine-checks them:

* :mod:`repro.analysis.concurrency` — the ``# guarded-by: <lock>``
  annotation convention and its checker (fields read/written outside a
  ``with <lock>`` scope are findings);
* :mod:`repro.analysis.lockgraph` — a lock-acquisition-graph extractor
  with static deadlock (lock-order cycle) detection;
* :mod:`repro.analysis.hygiene` — durability/hygiene rules: physical
  table mutation outside the recovery layer, WAL appends ordered after a
  commit point, broad exception handlers that swallow errors, mutable
  default arguments;
* :mod:`repro.analysis.sqlcheck` — the SQL/translation invariant checker
  running every Table-8 golden translation through the in-repo SQL
  parser (CTE well-formedness, parameter-slot bookkeeping, ``VID >= 0``
  lazy-delete filters, adjacency column budget);
* :mod:`repro.analysis.docs` — the markdown docs link/reference checker
  (``python tools/reprolint.py --select docs-links``).

PR 10 grew a flow-sensitive engine — :mod:`repro.analysis.cfg` builds
per-function control-flow graphs (branches, loops, ``with``,
``try/except/finally``, return/raise edges) and
:mod:`repro.analysis.dataflow` runs path queries and forward gen/kill
analyses over them — plus the rule packs on top:

* :mod:`repro.analysis.walflow` — WAL commit-point reachability (the
  PR-9 stored-procedure durability bug, as a checked invariant);
* :mod:`repro.analysis.release` — locks/sockets/files acquired outside
  ``with`` must be released on every path, exception edges included;
* :mod:`repro.analysis.wirecheck` — wire-protocol error-code
  conformance: declared, classified retryable-or-not, no dead codes,
  relays preserve the original code;
* the interprocedural ``# holds:`` caller check lives with its
  intra-class sibling in :mod:`repro.analysis.concurrency`.

The framework (rule registry, suppressions, baseline, reports) lives in
:mod:`repro.analysis.core`; ``tools/reprolint.py`` is the CLI driver and
the single analysis entry point.  See docs/ANALYSIS.md for the rule
catalog and annotation conventions.
"""

from repro.analysis.core import (  # noqa: F401
    Finding,
    LintContext,
    Report,
    all_rules,
    lint_paths,
    load_baseline,
    registered_rule,
    rule,
)

# importing the rule modules registers their rules
from repro.analysis import concurrency  # noqa: F401,E402
from repro.analysis import docs  # noqa: F401,E402
from repro.analysis import hygiene  # noqa: F401,E402
from repro.analysis import lockgraph  # noqa: F401,E402
from repro.analysis import release  # noqa: F401,E402
from repro.analysis import sqlcheck  # noqa: F401,E402
from repro.analysis import walflow  # noqa: F401,E402
from repro.analysis import wirecheck  # noqa: F401,E402

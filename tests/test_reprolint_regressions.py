"""The analysis regression corpus: known-bug fixtures reprolint must flag.

Each fixture under ``tests/fixtures/reprolint_regressions/`` freezes a
real bug a check was built to catch, next to a fixed twin the check must
stay silent on.  A check regression (the bug pattern no longer
detected, or the fix pattern newly flagged) fails tier-1 even though
the live tree is clean.
"""

from __future__ import annotations

import pathlib

from repro.analysis import lint

FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures" \
    / "reprolint_regressions"


class TestPr9MissingCommitPoint:
    """The stored-procedure durability bug stays detected."""

    def test_broken_twin_is_flagged(self):
        findings = lint([FIXTURES / "pr9_missing_commit.py"])
        flagged = {f.message.split(":", 1)[0] for f in findings}
        # both broken procedures, each at its mutation site
        assert "BrokenProcedures.add_vertex" in flagged
        assert "BrokenProcedures.update_vertex" in flagged
        assert all(f.rule == "wal-commit-reachability" for f in findings)

    def test_fixed_twin_is_clean(self):
        assert lint([FIXTURES / "pr9_fixed_commit.py"]) == []


class TestPr10ConnectLeak:
    """The client handshake socket leak stays detected."""

    def test_broken_twin_is_flagged(self):
        findings = lint([FIXTURES / "pr10_connect_leak.py"])
        assert [f.rule for f in findings] == ["release-on-all-paths"]
        assert "BrokenClient.connect" in findings[0].message
        assert "exception path" in findings[0].message

    def test_fixed_twin_is_clean(self):
        assert lint([FIXTURES / "pr10_connect_fixed.py"]) == []

"""Smoke test: every script under ``examples/`` runs to completion.

The examples are user-facing Gremlin and raw-SQL paths that no other test
runs.  Each runs in its own interpreter with ``PYTHONPATH=src`` from an
empty working directory, which it must leave empty.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda path: path.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(script)], cwd=tmp_path, env=env,
        capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert not list(tmp_path.iterdir())

"""The docs-links rule passes on the repo and catches planted drift."""

import pathlib
import subprocess
import sys

from repro.analysis import docs as docs_mod
from repro.analysis import lint_paths

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _problems(doc, commands):
    return [problem for _line, problem in
            docs_mod.check_file(doc.parent, doc, commands)]


def test_repo_docs_are_clean():
    report = lint_paths(ROOT, [], select=["docs-links"])
    assert report.findings == [], report.render_text()


def test_cli_commands_extracted():
    commands = docs_mod.cli_commands(ROOT)
    assert {":translate", ":explain", ":analyze", ":sql", ":stats",
            ":help", ":quit"} <= commands


def test_detects_dead_markdown_link(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [here](no/such/file.py) for details\n")
    assert _problems(doc, set()) == ["dead link: (no/such/file.py)"]


def test_detects_missing_file_reference(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("look at `src/repro/nonexistent.py` sometime\n")
    assert _problems(doc, set()) == [
        "missing file reference: `src/repro/nonexistent.py`"
    ]


def test_detects_unknown_cli_command(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("type `:frobnicate` in the shell\n")
    problems = _problems(doc, {":stats"})
    assert len(problems) == 1
    assert ":frobnicate" in problems[0]


def test_known_cli_command_and_external_links_ok(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "type `:stats` — docs at [site](https://example.com) "
        "and [anchor](#section)\n"
    )
    assert _problems(doc, {":stats"}) == []


def test_only_ticket_and_changelog_are_skipped(tmp_path):
    dead = "see [here](no/such/file.py)\n"
    (tmp_path / "ISSUE.md").write_text("- [ ] delete it\n" + dead)
    (tmp_path / "CHANGES.md").write_text(dead)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "PLAN.md").write_text("- [ ] a task\n" + dead)
    report = lint_paths(tmp_path, [], select=["docs-links"])
    assert [(finding.path, finding.message) for finding in report.findings] \
        == [("docs/PLAN.md", "dead link: (no/such/file.py)")]


def test_command_line_entry_point():
    result = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "reprolint.py"),
         "--select", "docs-links"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK" in result.stdout


# --- EXPLAIN ANALYZE vocabulary sync ---


def _plant_stats(root, fields='("actual_rows", "batches", "time")'):
    stats = root / "src" / "repro" / "obs"
    stats.mkdir(parents=True)
    (stats / "stats.py").write_text(
        f"EXPLAIN_ANNOTATION_FIELDS = {fields}\n"
    )


def test_annotation_fields_parsed_from_source(tmp_path):
    _plant_stats(tmp_path)
    assert docs_mod.explain_annotation_fields(tmp_path) == (
        "actual_rows", "batches", "time",
    )


def test_documented_annotation_fields_pass(tmp_path):
    _plant_stats(tmp_path)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "`actual_rows` counts rows, `batches` counts blocks, and the\n"
        "`(actual_rows=N batches=B time=T)` annotation shows `time` too.\n"
    )
    assert docs_mod.check_annotation_fields(tmp_path) == []


def test_undocumented_annotation_field_flagged(tmp_path):
    _plant_stats(tmp_path)
    (tmp_path / "docs").mkdir()
    (tmp_path / "docs" / "OBSERVABILITY.md").write_text(
        "`actual_rows` and `time` are documented, batches is not "
        "backticked anywhere.\n"
    )
    problems = docs_mod.check_annotation_fields(tmp_path)
    assert len(problems) == 1
    assert "`batches`" in problems[0][2]


def test_repo_sync_checks_are_clean():
    assert docs_mod.check_annotation_fields(ROOT) == []

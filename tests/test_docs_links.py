"""The docs-link checker passes on the repo and catches planted drift."""

import pathlib
import subprocess
import sys

TOOLS = pathlib.Path(__file__).resolve().parent.parent / "tools"
sys.path.insert(0, str(TOOLS))

import check_docs_links  # noqa: E402


def test_repo_docs_are_clean():
    report = check_docs_links.run()
    assert report == {}, f"dead doc references: {report}"


def test_cli_commands_extracted():
    commands = check_docs_links.cli_commands()
    assert {":translate", ":explain", ":analyze", ":sql", ":stats",
            ":help", ":quit"} <= commands


def test_detects_dead_markdown_link(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("see [here](no/such/file.py) for details\n")
    problems = check_docs_links.check_file(doc, set())
    assert problems == ["dead link: (no/such/file.py)"]


def test_detects_missing_file_reference(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("look at `src/repro/nonexistent.py` sometime\n")
    problems = check_docs_links.check_file(doc, set())
    assert problems == ["missing file reference: `src/repro/nonexistent.py`"]


def test_detects_unknown_cli_command(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text("type `:frobnicate` in the shell\n")
    problems = check_docs_links.check_file(doc, {":stats"})
    assert len(problems) == 1
    assert ":frobnicate" in problems[0]


def test_known_cli_command_and_external_links_ok(tmp_path):
    doc = tmp_path / "doc.md"
    doc.write_text(
        "type `:stats` — docs at [site](https://example.com) "
        "and [anchor](#section)\n"
    )
    assert check_docs_links.check_file(doc, {":stats"}) == []


def test_command_line_entry_point():
    result = subprocess.run(
        [sys.executable, str(TOOLS / "check_docs_links.py")],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "OK" in result.stdout


# --- cross-file sync checks (EXPLAIN ANALYZE fields, benchmark numbers) ---

from repro.analysis import docs as docs_mod  # noqa: E402


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


def _plant_benchmark(root, summary, doc_text):
    results = root / "benchmarks" / "results"
    results.mkdir(parents=True)
    import json
    (results / "BENCH_analytics.json").write_text(
        json.dumps({"summary": summary})
    )
    (root / "docs").mkdir(exist_ok=True)
    (root / "docs" / "ANALYTICS.md").write_text(doc_text)


def test_benchmark_summary_in_sync_passes(tmp_path):
    _plant_benchmark(
        tmp_path,
        {"fig8": "2.1x on the warm path", "command": "pytest -q"},
        "The executor wins 2.1x on the warm path; rerun via `pytest -q`.\n",
    )
    assert docs_mod.check_benchmark_sync(tmp_path) == []


def test_stale_benchmark_summary_flagged(tmp_path):
    _plant_benchmark(
        tmp_path,
        {"fig8": "3.0x on the warm path"},
        "The handbook still says 2.1x on the warm path.\n",
    )
    problems = docs_mod.check_benchmark_sync(tmp_path)
    assert len(problems) == 1
    assert "3.0x on the warm path" in problems[0][2]
    assert problems[0][0] == "docs/ANALYTICS.md"


def test_missing_benchmark_record_is_not_a_finding(tmp_path):
    # no committed benchmark record -> nothing to sync against
    assert docs_mod.check_benchmark_sync(tmp_path) == []


def test_repo_sync_checks_are_clean():
    root = TOOLS.parent
    assert docs_mod.sync_problems(root) == []
